// E19 — the batch sweep service under load: a 200+-spec mixed-family
// query set (harness/batch.hpp) answered three ways and compared.
//
//   * early-stop: the production path — CI-based early stopping with the
//     deterministic doubling grant schedule, cold disk cache;
//   * force-full: every spec runs its full trial budget (the baseline a
//     one-at-a-time radnet_cli loop would pay);
//   * warm-cache: the identical query set replayed against the cache the
//     early-stop run populated — every answer is an O(1) lookup.
//
// The headline numbers are the trial savings from early stopping (the
// Wilson rate interval plus the order-statistic rounds-median interval,
// support/stats.hpp) and the warm-replay cost per spec. The byte-identity
// contract — cold and warm streams identical, any thread count identical —
// is asserted here too and gated in CI by tools/bench_runner.cpp
// (schema v6, "e19_batch").
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "support/table.hpp"

namespace {

using radnet::Table;
using radnet::harness::BatchFamily;
using radnet::harness::BatchOptions;
using radnet::harness::BatchOutcome;
using radnet::harness::BatchSpec;
using radnet::harness::BatchStats;
using radnet::harness::parse_batch_spec;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The mixed-family query set: every protocol on every backend family at
/// several sizes and seeds. 216 specs at the default scale — the kind of
/// sweep a parameter-space exploration fires at the service in one file.
std::vector<BatchSpec> build_specs(std::uint32_t trials,
                                   std::uint32_t seeds_per_point) {
  const char* families[] = {"ignp", "csr", "idgnp churn=0.5", "irgg"};
  const char* protocols[] = {"alg1", "alg2m", "eg2005",
                             "flooding", "fixed", "decay"};
  // A fixed horizon keeps the non-completing protocols ("fixed" at q = 0.5
  // never terminates by itself) from burning the full derived budget on
  // every censored trial; tol 0.1 lets clearly resolved specs stop at a
  // proper prefix of the budget.
  std::vector<BatchSpec> specs;
  for (const std::string family : families)
    for (const std::string protocol : protocols)
      for (const char* n : {"256", "512", "1024"})
        for (std::uint32_t s = 0; s < seeds_per_point; ++s)
          specs.push_back(parse_batch_spec(
              "protocol=" + protocol + " family=" + family + " n=" + n +
              " trials=" + std::to_string(trials) + " seed=" +
              std::to_string(0x5eed + s) + " max-rounds=256 tol=0.1"));
  return specs;
}

struct ModeNumbers {
  std::string mode;
  double wall_ms = 0.0;
  BatchStats stats;
  std::string stream;
  std::vector<BatchOutcome> outcomes;
};

ModeNumbers run_mode(const std::string& mode,
                     const std::vector<BatchSpec>& specs,
                     const BatchOptions& options) {
  ModeNumbers m;
  m.mode = mode;
  std::ostringstream out;
  const double t0 = now_ms();
  m.outcomes = radnet::harness::run_batch(specs, options, out, &m.stats);
  m.wall_ms = now_ms() - t0;
  m.stream = out.str();
  return m;
}

void add_mode_row(Table& t, const ModeNumbers& m) {
  const double specs_per_s =
      static_cast<double>(m.stats.specs) / (m.wall_ms / 1e3);
  t.row()
      .add(m.mode)
      .add(static_cast<double>(m.stats.specs), 0)
      .add(static_cast<double>(m.stats.trials_run), 0)
      .add(static_cast<double>(m.stats.trials_saved), 0)
      .add(static_cast<double>(m.stats.cache_hits), 0)
      .add(m.wall_ms, 1)
      .add(specs_per_s, 1);
}

}  // namespace

int main() {
  const auto env = radnet::harness::bench_env();
  radnet::harness::banner(
      "E19 (batched sweep service)",
      "A 200+-spec mixed-family query set answered by the batch service: "
      "CI-based early stopping vs forced full runs vs a warm-cache replay, "
      "with the cold/warm byte-identity contract asserted.");

  const std::uint32_t trials = env.trials(48);
  const auto seeds_per_point =
      static_cast<std::uint32_t>(env.scaled(3, /*min=*/1));
  const std::vector<BatchSpec> specs = build_specs(trials, seeds_per_point);

  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() / "radnet_bench_e19_cache";
  std::filesystem::remove_all(cache_dir);

  BatchOptions early;
  early.cache_dir = cache_dir.string();
  BatchOptions full;
  full.force_full = true;  // no cache: the one-at-a-time baseline
  BatchOptions warm = early;

  const ModeNumbers cold = run_mode("early-stop/cold", specs, early);
  const ModeNumbers replay = run_mode("warm-cache", specs, warm);
  const ModeNumbers forced = run_mode("force-full", specs, full);
  std::filesystem::remove_all(cache_dir);

  // The contracts E19 exists to demonstrate; bench_runner gates them in CI.
  if (replay.stream != cold.stream) {
    std::cerr << "E19: warm-cache stream diverged from the cold run — "
                 "cache replay broke byte-identity\n";
    return 1;
  }
  BatchOptions serial = full;
  serial.threads = 1;
  if (run_mode("force-full/serial", specs, serial).stream != forced.stream) {
    std::cerr << "E19: serial and parallel streams diverged — the grant "
                 "schedule leaked thread count into the results\n";
    return 1;
  }

  {
    Table t({"mode", "specs", "trials_run", "trials_saved", "cache_hits",
             "wall_ms", "specs/s"});
    t.set_caption("E19a — " + std::to_string(specs.size()) +
                  " mixed-family specs, " + std::to_string(trials) +
                  " trials/spec budget, tol 0.1 @ 95% (warm-cache replay "
                  "answered the whole set from disk: 0 trials run)");
    add_mode_row(t, cold);
    add_mode_row(t, replay);
    add_mode_row(t, forced);
    radnet::harness::emit_table(env, "e19", "modes", t);
  }

  {
    Table t({"family", "specs", "granted_mean", "budget", "saved%"});
    t.set_caption(
        "E19b — early-stopping savings by backend family (granted trials "
        "vs the full budget; converged specs stop at a grant boundary)");
    for (const auto family :
         {BatchFamily::kCsr, BatchFamily::kImplicitGnp,
          BatchFamily::kImplicitDynamic, BatchFamily::kImplicitRgg}) {
      std::uint64_t count = 0, granted = 0, budget = 0;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].family != family) continue;
        ++count;
        granted += cold.outcomes[i].trials_granted;
        budget += specs[i].trials;
      }
      if (count == 0) continue;
      t.row()
          .add(radnet::harness::batch_family_name(family))
          .add(static_cast<double>(count), 0)
          .add(static_cast<double>(granted) / static_cast<double>(count), 1)
          .add(static_cast<double>(budget) / static_cast<double>(count), 0)
          .add(100.0 * (1.0 - static_cast<double>(granted) /
                                  static_cast<double>(budget)),
               1);
    }
    radnet::harness::emit_table(env, "e19", "savings", t);
  }

  const double warm_us_per_spec =
      replay.wall_ms * 1e3 / static_cast<double>(replay.stats.specs);
  std::cout << "Shape check: early stopping answers the set with a fraction "
               "of force-full's\ntrials at matching bytes for every spec "
               "that converged; the warm replay runs 0\ntrials ("
            << warm_us_per_spec
            << " us/spec, pure cache lookups) and reproduces the cold "
               "stream\nbyte-for-byte.\n";
  return 0;
}
