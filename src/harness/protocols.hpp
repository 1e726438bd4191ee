// The protocol table: one factory per protocol name, shared by batch specs
// (BatchSpec::to_mc_spec) and therefore by radnet_cli, which lowers its
// flags through a BatchSpec. Adding a protocol is one table row; the
// unknown-protocol error (BatchSpec::validate) lists the table's names.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "graph/digraph.hpp"
#include "sim/protocol.hpp"

namespace radnet::harness {

/// The resolved experiment parameters a protocol factory may read.
struct ProtocolArgs {
  graph::NodeId n = 0;
  double p = 0.0;  ///< link probability the transmit rates are tuned to
  graph::NodeId source = 0;
  std::uint64_t diameter = 0;  ///< hop diameter (alg3's lambda, cr)
  double q = 0.5;              ///< fixed's transmit probability
  double lambda = 0.0;         ///< alg3's lambda; 0 = lambda_of(n, diameter)
};

struct ProtocolEntry {
  std::string_view name;
  std::unique_ptr<sim::Protocol> (*make)(const ProtocolArgs&);
};

/// Every protocol, in name order: alg1 alg2 alg2m alg3 cr decay eg2005
/// flooding fixed tdma.
[[nodiscard]] std::span<const ProtocolEntry> protocol_table();

/// The entry called `name`, or nullptr.
[[nodiscard]] const ProtocolEntry* find_protocol(std::string_view name);

}  // namespace radnet::harness
