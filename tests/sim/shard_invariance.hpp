// Reusable shard-invariance property harness.
//
// Every backend family decomposes its per-round work — listener-block
// sweeps, the dynamic backend's sender-/group-chunked sketch phases, the
// RGG transmitter-chunked bucketing — under the keying and merge contracts
// of sim/sharding.hpp, which promise one observable: a run's trace, ledger
// and RunResult are *byte-identical* no matter how the work is scheduled.
// This header is that promise as a property check, shared by every test
// that pins it (tests/sim/thread_invariance_test.cpp sections, the phase
// matrices, and any future backend's invariance suite):
//
//   expect_shard_invariant(make_run, what)
//     runs the scenario at {1, 2, 8, 0} threads (serial, two fixed pool
//     widths with genuinely different chunk interleavings, and the shared
//     all-core global pool) and asserts every result byte-equals the
//     serial one. With sweep_simd_modes, the matrix gains the SIMD
//     dispatch dimension: every mode × thread-count combination must
//     byte-equal the *scalar serial* run (support/simd.hpp kernels consume
//     the same counter-keyed streams as the scalar path).
//
//   expect_csr_shard_invariant(make_run, what)
//     the explicit-CSR variant: every DeliveryPath × thread count, plus
//     the serial cross-path parity against the kSortedTouch baseline.
//
// record_trace is always on in those two, so equality covers every
// per-listener event in order, not just the aggregate ledger;
// expect_identical compares the load-bearing fields first for readable
// failures, then the exhaustive RunResult::operator== so future fields
// cannot silently escape the gate.
//
//   expect_in_block_invariant(make_run, what, trace_keeps_hints)
//     the in-block delivery path (sim/sharding.hpp), which only runs
//     *without* a trace: at {1, 2, 8} threads the in-block run and a run
//     through ForwardingProtocol (a decorator that does not declare
//     receiver-local deliveries, so it keeps the buffered merge) must
//     byte-equal the serial untraced run, and a record_trace run (also
//     buffered) must byte-equal the serial traced run. Tracing drops the
//     attentive hint, which steers sampling on the G(n,p) backends, so a
//     traced run matches the untraced ones only where the hint cannot
//     change draws (trace_keeps_hints: the RNG-free RGG delivery).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "support/simd.hpp"

namespace radnet::sim::shard_test {

/// Thread schedules every scenario runs at. 0 = the shared global pool
/// (all cores / RADNET_THREADS), so the matrix also covers whatever width
/// the host machine actually has.
inline constexpr unsigned kShardThreadCounts[] = {1, 2, 8, 0};

inline void expect_identical(const RunResult& a, const RunResult& b,
                             const char* what) {
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.rounds_executed, b.rounds_executed) << what;
  EXPECT_EQ(a.completion_round, b.completion_round) << what;
  EXPECT_EQ(a.ledger, b.ledger) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_TRUE(a == b) << what;
}

/// Core property: `make_run(options)` must be byte-identical (trace +
/// ledger + exhaustive RunResult) at every thread count — and, with
/// sweep_simd_modes, under every available SIMD dispatch mode — vs the
/// (scalar) serial baseline. Without the mode sweep the ambient dispatch
/// mode is left untouched, so a forced RADNET_SIMD environment (the CI
/// scalar leg) is exercised as-is.
template <class MakeRun>
void expect_shard_invariant(MakeRun&& make_run, const char* what,
                            bool sweep_simd_modes = false) {
  const simd::Mode before = simd::active_mode();
  if (sweep_simd_modes) simd::set_mode(simd::Mode::kScalar);
  RunOptions options;
  options.record_trace = true;
  options.threads = 1;
  const RunResult baseline = make_run(options);
  static constexpr simd::Mode kAllModes[] = {simd::Mode::kScalar,
                                             simd::Mode::kAvx2};
  const std::span<const simd::Mode> modes =
      sweep_simd_modes ? std::span<const simd::Mode>(kAllModes)
                       : std::span<const simd::Mode>(&before, 1);
  bool baseline_combo = true;  // (first mode, 1 thread) IS the baseline
  for (const simd::Mode mode : modes) {
    if (mode == simd::Mode::kAvx2 && !simd::cpu_has_avx2()) continue;
    if (sweep_simd_modes) simd::set_mode(mode);
    for (const unsigned threads : kShardThreadCounts) {
      if (threads == 1 && baseline_combo) {
        baseline_combo = false;
        continue;
      }
      options.threads = threads;
      const std::string label = std::string(what) + " [" +
                                simd::mode_name(mode) + " x" +
                                std::to_string(threads) + "]";
      expect_identical(baseline, make_run(options), label.c_str());
    }
  }
  if (sweep_simd_modes) simd::set_mode(before);
}

inline constexpr DeliveryPath kAllDeliveryPaths[] = {
    DeliveryPath::kSortedTouch, DeliveryPath::kLinearScan,
    DeliveryPath::kInNeighborScan, DeliveryPath::kAuto};

inline const char* path_name(DeliveryPath path) {
  switch (path) {
    case DeliveryPath::kSortedTouch: return "sorted-touch";
    case DeliveryPath::kLinearScan: return "linear-scan";
    case DeliveryPath::kInNeighborScan: return "in-neighbor-scan";
    default: return "auto";
  }
}

/// Explicit-CSR variant: every delivery path at every thread count against
/// `make_run`, asserting (a) each path is bit-identical to its own serial
/// run and (b) every path's serial run equals the serial kSortedTouch
/// baseline — the path-parity and shard-invariance contracts in one sweep.
template <class MakeRun>
void expect_csr_shard_invariant(MakeRun&& make_run, const char* what) {
  RunOptions options;
  options.record_trace = true;
  options.threads = 1;
  options.delivery_path = DeliveryPath::kSortedTouch;
  const RunResult baseline = make_run(options);
  for (const DeliveryPath path : kAllDeliveryPaths) {
    options.delivery_path = path;
    options.threads = 1;
    // (kSortedTouch, 1 thread) IS the baseline run — skip the repeat.
    const RunResult serial =
        path == DeliveryPath::kSortedTouch ? baseline : make_run(options);
    expect_identical(
        baseline, serial,
        (std::string(what) + " serial " + path_name(path)).c_str());
    for (const unsigned threads : kShardThreadCounts) {
      if (threads == 1) continue;  // `serial` IS the 1-thread run
      options.threads = threads;
      expect_identical(serial, make_run(options),
                       (std::string(what) + " " + path_name(path) + " x" +
                        std::to_string(threads))
                           .c_str());
    }
  }
}

/// Forwards every Protocol hook to `inner` except deliveries_receiver_local
/// — the shape of an outside decorator (a tracing wrapper, say) written
/// before the hook existed. Runs through it keep the buffered block merge.
class ForwardingProtocol : public Protocol {
 public:
  explicit ForwardingProtocol(Protocol& inner) : inner_(inner) {}

  void reset(NodeId num_nodes, Rng rng) override {
    inner_.reset(num_nodes, std::move(rng));
  }
  void begin_round(Round r) override { inner_.begin_round(r); }
  [[nodiscard]] std::span<const NodeId> candidates() const override {
    return inner_.candidates();
  }
  [[nodiscard]] bool wants_transmit(NodeId v, Round r) override {
    return inner_.wants_transmit(v, r);
  }
  [[nodiscard]] bool sample_transmitters(Round r,
                                         std::vector<NodeId>& out) override {
    return inner_.sample_transmitters(r, out);
  }
  [[nodiscard]] std::optional<std::span<const NodeId>> attentive_listeners()
      const override {
    return inner_.attentive_listeners();
  }
  void on_delivered(NodeId receiver, NodeId sender, Round r) override {
    inner_.on_delivered(receiver, sender, r);
  }
  void on_delivered_corrupted(NodeId receiver, NodeId sender,
                              Round r) override {
    inner_.on_delivered_corrupted(receiver, sender, r);
  }
  void on_collision(NodeId receiver, Round r) override {
    inner_.on_collision(receiver, r);
  }
  [[nodiscard]] bool collisions_inert() const override {
    return inner_.collisions_inert();
  }
  void end_round(Round r) override { inner_.end_round(r); }
  [[nodiscard]] bool is_complete() const override {
    return inner_.is_complete();
  }
  void set_goal_exclusions(std::span<const NodeId> nodes) override {
    inner_.set_goal_exclusions(nodes);
  }
  [[nodiscard]] std::optional<NodeId> stranded_count() const override {
    return inner_.stranded_count();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  Protocol& inner_;
};

inline constexpr unsigned kInBlockThreadCounts[] = {1, 2, 8};

/// `make_run(options, decorated)` runs the scenario, through
/// ForwardingProtocol when `decorated`. See the file comment.
template <class MakeRun>
void expect_in_block_invariant(MakeRun&& make_run, const char* what,
                               bool trace_keeps_hints) {
  RunOptions options;
  options.threads = 1;
  const RunResult serial = make_run(options, false);
  EXPECT_GT(serial.ledger.total_deliveries, 0u) << what;
  RunOptions traced_options = options;
  traced_options.record_trace = true;
  const RunResult traced_serial = make_run(traced_options, false);
  if (trace_keeps_hints) {
    RunResult stripped = traced_serial;
    stripped.trace.clear();
    expect_identical(serial, stripped,
                     (std::string(what) + " traced vs untraced").c_str());
  }
  for (const unsigned threads : kInBlockThreadCounts) {
    const std::string at = std::string(what) + " x" + std::to_string(threads);
    options.threads = threads;
    traced_options.threads = threads;
    if (threads != 1)
      expect_identical(serial, make_run(options, false),
                       (at + " in-block").c_str());
    expect_identical(serial, make_run(options, true),
                     (at + " decorated").c_str());
    if (threads != 1)
      expect_identical(traced_serial, make_run(traced_options, false),
                       (at + " traced").c_str());
  }
}

}  // namespace radnet::sim::shard_test
