#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "support/cli_args.hpp"

namespace radnet::harness {

std::uint32_t BenchEnv::trials(std::uint32_t default_trials) const {
  return trials_override != 0 ? trials_override : default_trials;
}

std::uint64_t BenchEnv::scaled(std::uint64_t base, std::uint64_t min) const {
  const double v = static_cast<double>(base) * scale;
  return std::max<std::uint64_t>(min, static_cast<std::uint64_t>(std::llround(v)));
}

BenchEnv bench_env() {
  BenchEnv env;
  if (const char* s = std::getenv("RADNET_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0) env.scale = v;
  }
  if (const char* s = std::getenv("RADNET_TRIALS")) {
    const long v = std::atol(s);
    if (v > 0) env.trials_override = static_cast<std::uint32_t>(v);
  }
  if (const char* s = std::getenv("RADNET_SEED")) {
    env.seed = std::strtoull(s, nullptr, 0);
  }
  if (const char* s = std::getenv("RADNET_CSV")) {
    env.csv_dir = s;
  }
  return env;
}

void emit_table(const BenchEnv& env, const std::string& bench,
                const std::string& table_id, const Table& table) {
  std::cout << table.str() << '\n';
  if (!env.csv_dir.empty()) {
    const std::string path = env.csv_dir + "/" + bench + "_" + table_id + ".csv";
    table.write_csv(path);
    std::cout << "[csv written: " << path << "]\n\n";
  }
}

bool parse_topology_flag(int argc, char** argv, std::string* label_out,
                         const char* default_value) {
  std::string topology;
  try {
    const CliArgs args(argc, argv, {"topology"});
    topology = args.get_string("topology", default_value);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    std::exit(2);
  }
  if (topology != "implicit" && topology != "csr") {
    std::cerr << "unknown --topology '" << topology
              << "' (expected implicit|csr)\n";
    std::exit(2);
  }
  if (label_out != nullptr) *label_out = topology;
  return topology == "implicit";
}

void banner(const std::string& bench_id, const std::string& claim) {
  std::cout << "==============================================================\n"
            << bench_id << '\n'
            << claim << '\n'
            << "==============================================================\n\n";
}

}  // namespace radnet::harness
