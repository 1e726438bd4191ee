#include "harness/protocols.hpp"

#include "baselines/broadcast_baselines.hpp"
#include "baselines/gossip_baselines.hpp"
#include "core/broadcast_general.hpp"
#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "support/math.hpp"

namespace radnet::harness {

namespace {

using Made = std::unique_ptr<sim::Protocol>;

constexpr ProtocolEntry kTable[] = {
    {"alg1", [](const ProtocolArgs& a) -> Made {
       return std::make_unique<core::BroadcastRandomProtocol>(
           core::BroadcastRandomParams{.p = a.p, .source = a.source});
     }},
    {"alg2", [](const ProtocolArgs& a) -> Made {
       return std::make_unique<core::GossipRandomProtocol>(
           core::GossipRandomParams{.p = a.p});
     }},
    {"alg2m", [](const ProtocolArgs& a) -> Made {
       return std::make_unique<core::GossipRumorMarginalProtocol>(
           core::GossipRumorMarginalParams{.p = a.p, .rumor_source = a.source});
     }},
    {"alg3", [](const ProtocolArgs& a) -> Made {
       const double lambda =
           a.lambda > 0.0 ? a.lambda : lambda_of(a.n, a.diameter);
       return std::make_unique<core::GeneralBroadcastProtocol>(
           core::GeneralBroadcastParams{
               .schedule = core::sequence_schedule(
                   core::SequenceDistribution::alpha_with_lambda(a.n, lambda)),
               .window = core::general_window(a.n, 4.0),
               .source = a.source,
               .label = "alg3"});
     }},
    {"cr", [](const ProtocolArgs& a) -> Made {
       return std::make_unique<core::GeneralBroadcastProtocol>(
           baselines::czumaj_rytter_params(a.n, a.diameter, 4.0, a.source));
     }},
    {"decay", [](const ProtocolArgs& a) -> Made {
       return std::make_unique<core::GeneralBroadcastProtocol>(
           baselines::decay_params(a.n, a.source));
     }},
    {"eg2005", [](const ProtocolArgs& a) -> Made {
       return std::make_unique<core::GeneralBroadcastProtocol>(
           baselines::eg2005_params(a.n, a.p, a.source));
     }},
    {"flooding", [](const ProtocolArgs& a) -> Made {
       return std::make_unique<core::GeneralBroadcastProtocol>(
           baselines::flooding_params(a.source));
     }},
    {"fixed", [](const ProtocolArgs& a) -> Made {
       return std::make_unique<core::GeneralBroadcastProtocol>(
           baselines::fixed_params(a.n, a.q, a.source));
     }},
    {"tdma", [](const ProtocolArgs&) -> Made {
       return std::make_unique<baselines::TdmaGossipProtocol>();
     }},
};

}  // namespace

std::span<const ProtocolEntry> protocol_table() { return kTable; }

const ProtocolEntry* find_protocol(std::string_view name) {
  for (const ProtocolEntry& e : kTable)
    if (e.name == name) return &e;
  return nullptr;
}

}  // namespace radnet::harness
