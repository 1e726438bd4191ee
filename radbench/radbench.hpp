// Shared pieces of the radnet benchmark: trial construction through the
// library's public entry points, and the outside-in tracing used by the
// traced run.
//
// Tracing never edits the library. It has two parts:
//
//   * TracingProtocol, a forwarding decorator over sim::Protocol. It
//     forwards every hook (the optional sample_transmitters,
//     attentive_listeners and collisions_inert hints included), so the
//     engine takes exactly the paths it takes for the bare protocol and the
//     RunResult stays byte-identical. Around the forwarded calls it records
//     spans: transmit (begin_round entry to the last transmit decision),
//     deliver (last decision to end_round entry), commit (end_round) and
//     complete (is_complete), plus per-round wall times from
//     RunOptions::round_observer.
//   * Shadow, a second instance of the trial's backend built from the same
//     spec and seed. At each end_round entry the decorator replays the
//     round's exact inputs (transmitters, is_tx, the attentive span and the
//     collision hint, all still valid then) through the shadow's public
//     begin_round / deliver (and, for the RGG, bucket_for_test) into a
//     counting sink. The shadow's time is kept out of every decorator span
//     and out of the round times, so it splits the engine's deliver span
//     into backend work and the engine's serial sink/ledger/callback share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/batch.hpp"
#include "harness/monte_carlo.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"
#include "sim/topology.hpp"
#include "support/require.hpp"
#include "support/thread_pool.hpp"

namespace radbench {

using namespace radnet;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- trials ---

/// Backend spec type -> backend (topology) type and family name.
template <class Spec>
struct Backend;
template <>
struct Backend<sim::ImplicitGnp> {
  using Topology = sim::ImplicitGnpTopology;
  static constexpr std::string_view kFamily = "ignp";
};
template <>
struct Backend<sim::ImplicitDynamicGnp> {
  using Topology = sim::ImplicitDynamicGnpTopology;
  static constexpr std::string_view kFamily = "idgnp";
};
template <>
struct Backend<sim::ImplicitRgg> {
  using Topology = sim::ImplicitRggTopology;
  static constexpr std::string_view kFamily = "irgg";
};

/// Calls f(backend_spec) with trial 0's backend spec of an implicit-family
/// McSpec, seeded exactly as the Monte-Carlo harness seeds trial 0 (graph
/// stream (seed, 0, 0)), so a single-trial workload is trial 0 of the same
/// spec run through run_monte_carlo.
template <class F>
decltype(auto) with_backend_spec(const harness::McSpec& mc, F&& f) {
  const Rng graph_rng = Rng(mc.seed).split(0, 0);
  if (mc.implicit_dynamic.has_value()) {
    sim::ImplicitDynamicGnp spec = *mc.implicit_dynamic;
    spec.rng = graph_rng;
    return f(std::as_const(spec));
  }
  if (mc.implicit_rgg.has_value()) {
    sim::ImplicitRgg spec = *mc.implicit_rgg;
    spec.rng = graph_rng;
    return f(std::as_const(spec));
  }
  RADNET_REQUIRE(mc.implicit_gnp.has_value(),
                 "single-trial workloads need an implicit backend family");
  const sim::ImplicitGnp spec{mc.implicit_gnp->n, mc.implicit_gnp->p,
                              graph_rng};
  return f(spec);
}

/// Trial 0's protocol randomness, as the Monte-Carlo harness derives it.
inline Rng protocol_rng(const harness::McSpec& mc) {
  return Rng(mc.seed).split(0, 1);
}

inline std::unique_ptr<sim::Protocol> make_protocol(
    const harness::McSpec& mc) {
  static const graph::Digraph placeholder;
  return mc.make_protocol(placeholder, 0);
}

// ------------------------------------------------------------- shadow ---

struct ShadowTotals {
  std::uint64_t deliveries = 0;  ///< per-event and bulk deliveries
  std::uint64_t collisions = 0;  ///< per-event and bulk collisions
};

struct ShadowTimes {
  double begin_round_s = 0.0;
  double bucket_s = 0.0;  ///< RGG only: bucket_for_test + unbucket_for_test
  double deliver_s = 0.0;
  std::size_t max_sketch_size = 0;  ///< dynamic G(n,p) only
};

/// The backend contract's sink, counting instead of dispatching.
struct CountingSink {
  ShadowTotals& totals;
  void deliver(graph::NodeId, graph::NodeId) { ++totals.deliveries; }
  void collide(graph::NodeId) { ++totals.collisions; }
  void deliver_bulk(std::uint64_t count) { totals.deliveries += count; }
  void collide_bulk(std::uint64_t count) { totals.collisions += count; }
};

/// One round's inputs to the backend, as the engine passed them.
struct RoundInputs {
  sim::Round round = 0;
  std::span<const graph::NodeId> transmitters;
  const std::vector<char>* is_tx = nullptr;
  bool half_duplex = true;
  sim::DeliveryPath path = sim::DeliveryPath::kAuto;
  std::optional<std::span<const graph::NodeId>> attentive;
  bool collisions_inert = false;
};

class Shadow {
 public:
  virtual ~Shadow() = default;
  Shadow() = default;
  Shadow(const Shadow&) = delete;
  Shadow& operator=(const Shadow&) = delete;
  Shadow(Shadow&&) = delete;
  Shadow& operator=(Shadow&&) = delete;

  virtual void replay(const RoundInputs& in) = 0;

  [[nodiscard]] const ShadowTotals& totals() const { return totals_; }
  [[nodiscard]] const ShadowTimes& times() const { return times_; }

 protected:
  ShadowTotals totals_;
  ShadowTimes times_;
};

template <class Spec>
class ShadowBackend final : public Shadow {
 public:
  using Topology = typename Backend<Spec>::Topology;

  ShadowBackend(const Spec& spec, unsigned threads) : topo_(spec) {
    topo_.set_parallelism(resolve_pool(threads));
  }

  void replay(const RoundInputs& in) override {
    const Clock::time_point t0 = Clock::now();
    topo_.begin_round(in.round);
    const Clock::time_point t1 = Clock::now();
    times_.begin_round_s += seconds_between(t0, t1);
    if constexpr (std::is_same_v<Spec, sim::ImplicitRgg>) {
      if (!in.transmitters.empty()) {
        topo_.bucket_for_test(in.transmitters);
        topo_.unbucket_for_test();
      }
    }
    const Clock::time_point t2 = Clock::now();
    times_.bucket_s += seconds_between(t1, t2);
    CountingSink sink{totals_};
    topo_.deliver(in.transmitters, *in.is_tx, in.half_duplex, in.path,
                  in.attentive, in.collisions_inert, sink);
    times_.deliver_s += seconds_between(t2, Clock::now());
    if constexpr (std::is_same_v<Spec, sim::ImplicitDynamicGnp>)
      times_.max_sketch_size =
          std::max(times_.max_sketch_size, topo_.sketch_size());
  }

 private:
  Topology topo_;
};

template <class Spec>
std::unique_ptr<Shadow> make_shadow(const Spec& spec, unsigned threads) {
  return std::make_unique<ShadowBackend<Spec>>(spec, threads);
}

// ---------------------------------------------------------- decorator ---

/// What the decorator measured over one run.
struct CoreTrace {
  double transmit_s = 0.0;  ///< begin_round entry .. last transmit decision
  double deliver_s = 0.0;   ///< last transmit decision .. end_round entry
  double commit_s = 0.0;    ///< inside end_round
  double complete_s = 0.0;  ///< inside is_complete
  double shadow_s = 0.0;    ///< shadow replays (outside every span above)
  std::uint64_t transmitters = 0;
  std::uint64_t callbacks = 0;  ///< on_delivered + on_delivered_corrupted
  std::vector<double> round_s;  ///< per round, shadow time excluded
};

class TracingProtocol final : public sim::Protocol {
 public:
  /// `shadow` may be null (decorator only). `options` are the run's options;
  /// traced_options() returns them with the round observer installed.
  TracingProtocol(sim::Protocol& inner, Shadow* shadow,
                  const sim::RunOptions& options)
      : inner_(inner), shadow_(shadow), options_(options) {}
  TracingProtocol(const TracingProtocol&) = delete;
  TracingProtocol& operator=(const TracingProtocol&) = delete;
  TracingProtocol(TracingProtocol&&) = delete;
  TracingProtocol& operator=(TracingProtocol&&) = delete;

  /// The run's options plus the round observer; the observer refers to this
  /// object, which must outlive the run.
  [[nodiscard]] sim::RunOptions traced_options() {
    sim::RunOptions opts = options_;
    opts.round_observer = [this](sim::Round) { on_round_end(); };
    return opts;
  }

  [[nodiscard]] const CoreTrace& trace() const { return trace_; }

  void reset(graph::NodeId num_nodes, Rng rng) override {
    trace_ = CoreTrace{};
    is_tx_.assign(num_nodes, 0);
    first_round_ = true;
    inner_.reset(num_nodes, std::move(rng));
  }

  void begin_round(sim::Round r) override {
    round_begin_ = Clock::now();
    if (first_round_) {
      last_round_end_ = round_begin_;
      first_round_ = false;
    }
    tx_.clear();
    decided_ = 0;
    decision_end_.reset();
    inner_.begin_round(r);
  }

  [[nodiscard]] std::span<const graph::NodeId> candidates() const override {
    const std::span<const graph::NodeId> c = inner_.candidates();
    expected_ = c.size();
    return c;
  }

  [[nodiscard]] bool wants_transmit(graph::NodeId v, sim::Round r) override {
    const bool w = inner_.wants_transmit(v, r);
    if (w) tx_.push_back(v);
    if (++decided_ == expected_) decision_end_ = Clock::now();
    return w;
  }

  [[nodiscard]] bool sample_transmitters(
      sim::Round r, std::vector<graph::NodeId>& out) override {
    const bool sampled = inner_.sample_transmitters(r, out);
    if (sampled) {
      tx_.assign(out.begin(), out.end());
      decision_end_ = Clock::now();
    } else if (expected_ == 0) {
      decision_end_ = Clock::now();
    }
    return sampled;
  }

  [[nodiscard]] std::optional<std::span<const graph::NodeId>>
  attentive_listeners() const override {
    attentive_ = inner_.attentive_listeners();
    return attentive_;
  }

  void on_delivered(graph::NodeId receiver, graph::NodeId sender,
                    sim::Round r) override {
    ++trace_.callbacks;
    inner_.on_delivered(receiver, sender, r);
  }

  void on_delivered_corrupted(graph::NodeId receiver, graph::NodeId sender,
                              sim::Round r) override {
    ++trace_.callbacks;
    inner_.on_delivered_corrupted(receiver, sender, r);
  }

  void on_collision(graph::NodeId receiver, sim::Round r) override {
    inner_.on_collision(receiver, r);
  }

  [[nodiscard]] bool collisions_inert() const override {
    collisions_inert_ = inner_.collisions_inert();
    return collisions_inert_;
  }

  void end_round(sim::Round r) override {
    const Clock::time_point entry = Clock::now();
    const Clock::time_point decided = decision_end_.value_or(entry);
    trace_.transmit_s += seconds_between(round_begin_, decided);
    trace_.deliver_s += seconds_between(decided, entry);
    trace_.transmitters += tx_.size();

    round_shadow_s_ = 0.0;
    if (shadow_ != nullptr) {
      for (const graph::NodeId u : tx_) is_tx_[u] = 1;
      // The engine drops both hints on trace-recording runs; mirror it.
      shadow_->replay(RoundInputs{
          r, {tx_.data(), tx_.size()}, &is_tx_, options_.half_duplex,
          options_.delivery_path,
          options_.record_trace ? std::nullopt : attentive_,
          !options_.record_trace && collisions_inert_});
      for (const graph::NodeId u : tx_) is_tx_[u] = 0;
      round_shadow_s_ = seconds_between(entry, Clock::now());
      trace_.shadow_s += round_shadow_s_;
    }

    const Clock::time_point commit_begin = Clock::now();
    inner_.end_round(r);
    trace_.commit_s += seconds_between(commit_begin, Clock::now());
  }

  [[nodiscard]] bool is_complete() const override {
    const Clock::time_point t0 = Clock::now();
    const bool done = inner_.is_complete();
    trace_.complete_s += seconds_between(t0, Clock::now());
    return done;
  }

  void set_goal_exclusions(std::span<const graph::NodeId> nodes) override {
    inner_.set_goal_exclusions(nodes);
  }

  [[nodiscard]] std::optional<graph::NodeId> stranded_count() const override {
    return inner_.stranded_count();
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  void on_round_end() {
    const Clock::time_point now = Clock::now();
    trace_.round_s.push_back(seconds_between(last_round_end_, now) -
                             round_shadow_s_);
    last_round_end_ = now;
  }

  sim::Protocol& inner_;
  Shadow* shadow_;
  sim::RunOptions options_;

  // The const hooks (candidates, attentive_listeners, collisions_inert,
  // is_complete) record into these.
  mutable CoreTrace trace_;
  mutable std::size_t expected_ = 0;
  mutable std::optional<std::span<const graph::NodeId>> attentive_;
  mutable bool collisions_inert_ = false;

  std::vector<graph::NodeId> tx_;
  std::vector<char> is_tx_;
  std::size_t decided_ = 0;
  bool first_round_ = true;
  Clock::time_point round_begin_{};
  Clock::time_point last_round_end_{};
  std::optional<Clock::time_point> decision_end_;
  double round_shadow_s_ = 0.0;
};

// ------------------------------------------------------ traced trials ---

struct TracedTrial {
  sim::RunResult result;
  CoreTrace core;
  ShadowTimes shadow;
  ShadowTotals shadow_totals;
  double wall_s = 0.0;  ///< whole Engine::run, shadow time included
};

/// Runs trial 0 of `mc` at `threads` under the decorator and a shadow
/// backend at the same thread count.
inline TracedTrial run_traced_trial(const harness::McSpec& mc,
                                    unsigned threads) {
  return with_backend_spec(mc, [&](const auto& spec) {
    TracedTrial out;
    sim::RunOptions opts = mc.run_options;
    opts.threads = threads;
    const std::unique_ptr<Shadow> shadow = make_shadow(spec, threads);
    const std::unique_ptr<sim::Protocol> inner = make_protocol(mc);
    TracingProtocol traced(*inner, shadow.get(), opts);
    const Clock::time_point t0 = Clock::now();
    out.result = sim::Engine{}.run(spec, traced, protocol_rng(mc),
                                   traced.traced_options());
    out.wall_s = seconds_between(t0, Clock::now());
    out.core = traced.trace();
    out.shadow = shadow->times();
    out.shadow_totals = shadow->totals();
    return out;
  });
}

// ---------------------------------------------------------- sweep mix ---

/// The sweep-batch spec mix, one spec line per cell of {alg1, alg2m, eg2005,
/// decay} x {csr, ignp, idgnp at churn 0.5, irgg} x `ns`, each with
/// `trials`, `tol` and `seed`. The benchmark and its transparency test both
/// build their spec sets here, so they always cover the same pairs.
inline std::string sweep_mix_text(std::initializer_list<unsigned> ns,
                                  unsigned trials, std::string_view tol,
                                  std::uint64_t seed) {
  std::string text;
  for (const char* protocol : {"alg1", "alg2m", "eg2005", "decay"})
    for (const char* family : {"csr", "ignp", "idgnp", "irgg"})
      for (const unsigned n : ns) {
        text += std::string("protocol=") + protocol + " family=" + family +
                " n=" + std::to_string(n);
        if (std::string_view(family) == "idgnp") text += " churn=0.5";
        text += " trials=" + std::to_string(trials) + " tol=" +
                std::string(tol) + " seed=" + std::to_string(seed) + "\n";
      }
  return text;
}

/// Runs trial 0 of `mc` at `threads` with the bare protocol.
inline sim::RunResult run_bare_trial(const harness::McSpec& mc,
                                     unsigned threads,
                                     std::optional<sim::Round> max_rounds = {}) {
  return with_backend_spec(mc, [&](const auto& spec) {
    sim::RunOptions opts = mc.run_options;
    opts.threads = threads;
    if (max_rounds.has_value()) opts.max_rounds = *max_rounds;
    const std::unique_ptr<sim::Protocol> protocol = make_protocol(mc);
    return sim::Engine{}.run(spec, *protocol, protocol_rng(mc), opts);
  });
}

/// The shadow saw exactly the engine's inputs iff its event totals, bulk
/// folds included, equal the run's ledger totals.
inline bool shadow_matches_ledger(const TracedTrial& t) {
  return t.shadow_totals.deliveries == t.result.ledger.total_deliveries &&
         t.shadow_totals.collisions == t.result.ledger.total_collisions;
}

}  // namespace radbench
