// Experiment-level conveniences shared by the bench binaries.
//
// Benches are standalone programs that print paper-style tables; their
// problem sizes honour two environment variables so the same binaries serve
// quick smoke runs and overnight sweeps:
//   RADNET_SCALE  — multiplies the largest n in each sweep (default 1.0)
//   RADNET_TRIALS — overrides the per-point trial count
//   RADNET_SEED   — overrides the root seed
//   RADNET_CSV    — when set to a directory, every table is also written
//                   there as <bench>_<table>.csv
//
// Wall time is measured by radbench (radbench/run.py); memory-ceiling runs
// are `radnet_batch --isolate --isolate-mem-mb M` commands (README "Memory
// ceilings").
#pragma once

#include <cstdint>
#include <string>

#include "support/table.hpp"

namespace radnet::harness {

struct BenchEnv {
  double scale = 1.0;
  std::uint32_t trials_override = 0;  ///< 0 = use the bench's default
  std::uint64_t seed = 0x5eedull;
  std::string csv_dir;                ///< empty = don't write CSVs

  /// Applies the trial override (if any) to a bench's default.
  [[nodiscard]] std::uint32_t trials(std::uint32_t default_trials) const;

  /// Scales a sweep's maximum size: round(base * scale), at least `min`.
  [[nodiscard]] std::uint64_t scaled(std::uint64_t base, std::uint64_t min = 2) const;
};

/// Reads the RADNET_* environment variables.
[[nodiscard]] BenchEnv bench_env();

/// Parses the benches' shared `--topology=implicit|csr` flag (the only
/// command-line flag the topology-switchable bench binaries take). Returns
/// true for implicit; fills `label_out` (when non-null) with the value for
/// banners. Unknown flags or values print a message and exit 2.
[[nodiscard]] bool parse_topology_flag(int argc, char** argv,
                                       std::string* label_out,
                                       const char* default_value = "csr");

/// Prints the table to stdout and, when env.csv_dir is set, writes
/// "<env.csv_dir>/<bench>_<table>.csv".
void emit_table(const BenchEnv& env, const std::string& bench,
                const std::string& table_id, const Table& table);

/// A banner line naming the experiment and paper artefact it reproduces.
void banner(const std::string& bench_id, const std::string& claim);

}  // namespace radnet::harness
