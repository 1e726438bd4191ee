// Golden fingerprints: a 64-bit hash of the full RunResult (completion,
// round counts, every ledger field including tx_per_node, adversary
// counters, trace) for a fixed scenario grid, checked against
// tests/golden/fingerprints.txt.
//
// The shard-invariance harness compares runs with each other inside one
// build, so a change that moves serial and parallel runs the same way
// passes it. This test compares against the committed output of earlier
// builds instead: any change to a scenario's bytes fails here until the
// fingerprints are re-blessed, which turns intentional numeric changes
// into reviewed diffs of fingerprints.txt.
//
// Grid: {alg1, alg2m, flooding, fixed, decay, eg2005, alg3, cr} x {csr,
// ignp, idgnp at churn 0.5, irgg} x {1, 4 threads}. Each scenario is a
// batch spec line (harness/batch.hpp) run as its trial 0 — the same
// streams run_monte_carlo uses — with no trace, so the 4-thread runs
// exercise the sharded sweeps and their bulk-count paths. Four more rows
// run alg2m and flooding on idgnp with a pair sketch small enough to fill
// (2^14 entries for alg2m; 2^10 for flooding, whose 96 rounds make too few
// deliveries to fill 2^14): they pin the stale sweep and the inserts
// dropped at capacity, which the default-capacity idgnp rows never reach.
// Each such row must differ from its default-capacity twin, or it pins
// nothing the twin does not.
//
// Regenerate after an intentional change:
//   ./build/golden_golden_test --bless
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/batch.hpp"
#include "harness/monte_carlo.hpp"
#include "sim/engine.hpp"
#include "support/hash.hpp"

#ifndef RADNET_GOLDEN_FILE
#error "RADNET_GOLDEN_FILE must name tests/golden/fingerprints.txt"
#endif

namespace radnet {
namespace {

struct Scenario {
  std::string name;  ///< "<protocol>/<family>/t<threads>"
  std::string spec;  ///< batch spec line
  unsigned threads;
  std::uint32_t sketch_capacity = 0;  ///< 0 keeps the spec's default
};

std::vector<Scenario> scenarios() {
  static const char* const kProtocols[] = {"alg1",  "alg2m", "flooding",
                                           "fixed", "decay", "eg2005",
                                           "alg3",  "cr"};
  // n is large enough for several 2^16-listener blocks on the sampling
  // backends; the CSR graph stays small (its blocks adapt to the pool).
  static const struct {
    const char* name;
    const char* spec;
  } kFamilies[] = {
      {"csr", "family=csr n=4096"},
      {"ignp", "family=ignp n=131072"},
      {"idgnp", "family=idgnp n=131072 churn=0.5"},
      {"irgg", "family=irgg n=131072"},
  };
  std::vector<Scenario> out;
  for (const char* protocol : kProtocols)
    for (const auto& family : kFamilies)
      for (const unsigned threads : {1u, 4u})
        out.push_back({std::string(protocol) + "/" + family.name + "/t" +
                           std::to_string(threads),
                       std::string("protocol=") + protocol + " " +
                           family.spec + " seed=11 max-rounds=96",
                       threads});
  static const struct {
    const char* protocol;
    std::uint32_t capacity;
  } kFull[] = {{"alg2m", 1u << 14}, {"flooding", 1u << 10}};
  for (const auto& full : kFull)
    for (const unsigned threads : {1u, 4u})
      out.push_back({std::string(full.protocol) + "/idgnp-full/t" +
                         std::to_string(threads),
                     std::string("protocol=") + full.protocol +
                         " family=idgnp n=131072 churn=0.5 seed=11"
                         " max-rounds=96",
                     threads, full.capacity});
  return out;
}

std::uint64_t fingerprint(const sim::RunResult& r) {
  HashStream h("radnet-golden-run-v1");
  h.put_u64(1, r.completed);
  h.put_u64(2, r.rounds_executed);
  h.put_u64(3, r.completion_round);
  h.put_u64(4, r.ledger.tx_per_node.size());
  for (const std::uint32_t tx : r.ledger.tx_per_node) h.put_u64(5, tx);
  h.put_u64(6, r.ledger.total_transmissions);
  h.put_u64(7, r.ledger.total_deliveries);
  h.put_u64(8, r.ledger.total_collisions);
  h.put_u64(9, r.ledger.node_rounds);
  const sim::AdversaryStats& a = r.adversary;
  for (const std::uint64_t v :
       {std::uint64_t{a.jammer_count}, std::uint64_t{a.byzantine_count},
        std::uint64_t{a.exhausted_count}, std::uint64_t{a.crashed_count},
        a.jammer_tx, a.blocked_tx, a.jammed_deliveries,
        a.corrupted_deliveries, a.suppressed_receptions})
    h.put_u64(10, v);
  h.put_u64(11, r.trace.rounds.size());
  for (const sim::RoundTrace& rt : r.trace.rounds) {
    h.put_u64(12, rt.round);
    for (const graph::NodeId v : rt.transmitters) h.put_u64(13, v);
    for (const sim::Delivery& d : rt.deliveries)
      h.put_u64(14, (std::uint64_t{d.receiver} << 32) | d.sender);
    for (const graph::NodeId v : rt.collisions) h.put_u64(15, v);
  }
  return h.value();
}

/// Trial 0 of the spec at an explicit thread count — the same trial
/// run_monte_carlo builds.
sim::RunResult run_trial0(const Scenario& s) {
  harness::McSpec mc = harness::parse_batch_spec(s.spec).to_mc_spec();
  if (s.sketch_capacity != 0)
    mc.implicit_dynamic->sketch_capacity = s.sketch_capacity;
  sim::RunOptions options = mc.run_options;
  options.threads = s.threads;
  return harness::run_trial(mc, 0, options).run;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::map<std::string, std::string> read_fingerprints() {
  std::map<std::string, std::string> out;
  std::ifstream in(RADNET_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hash;
    if (fields >> name >> hash) out[name] = hash;
  }
  return out;
}

bool g_bless = false;

TEST(Golden, FingerprintsMatch) {
  const std::vector<Scenario> all = scenarios();
  if (g_bless) {
    std::ofstream out(RADNET_GOLDEN_FILE);
    out << "# Golden RunResult fingerprints (tests/golden/golden_test.cpp).\n"
           "# <protocol>/<family>/t<threads> <64-bit hash>. Regenerate with\n"
           "# `golden_golden_test --bless` and explain every moved line.\n";
    for (const Scenario& s : all)
      out << s.name << ' ' << hex(fingerprint(run_trial0(s))) << '\n';
    ASSERT_TRUE(out.good()) << "cannot write " << RADNET_GOLDEN_FILE;
    return;
  }
  const std::map<std::string, std::string> golden = read_fingerprints();
  ASSERT_FALSE(golden.empty()) << "no fingerprints in " << RADNET_GOLDEN_FILE;
  std::map<std::string, std::string> got;
  for (const Scenario& s : all) {
    const auto it = golden.find(s.name);
    ASSERT_NE(it, golden.end()) << "no fingerprint for " << s.name;
    got[s.name] = hex(fingerprint(run_trial0(s)));
    EXPECT_EQ(got[s.name], it->second)
        << s.name << " (" << s.spec << ") moved; re-bless only if the "
        << "change is intended and explained";
  }
  for (const Scenario& s : all) {
    const std::size_t at = s.name.find("/idgnp-full/");
    if (at == std::string::npos) continue;
    std::string twin = s.name;
    twin.replace(at, std::strlen("/idgnp-full/"), "/idgnp/");
    EXPECT_NE(got.at(s.name), got.at(twin))
        << s.name << " runs as its default-capacity twin " << twin
        << ": its sketch never fills";
  }
}

}  // namespace
}  // namespace radnet

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--bless") == 0) radnet::g_bless = true;
  return RUN_ALL_TESTS();
}
