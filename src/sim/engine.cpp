#include "sim/engine.hpp"

#include <algorithm>

#include "support/require.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {

namespace {

/// Receives the backend's per-receiver events and fans them out to the
/// ledger, the optional trace and the protocol. With an adversary active
/// (adv != nullptr) the sink is also the receive-side enforcement point:
/// ledger totals stay *channel-level* event counts (consistent with the
/// bulk folds, which cannot see radio state), while the protocol callback
/// is suppressed for noise (jammer senders) and dead radios, and rerouted
/// through on_delivered_corrupted for Byzantine senders.
struct EngineSink {
  Protocol& protocol;
  RunResult& result;
  RoundTrace* rt;
  Round round;
  const AdversaryState* adv = nullptr;
  /// Set when the run may apply deliveries inside the parallel sweep
  /// blocks (sim/sharding.hpp): receiver-local protocol, no trace, no
  /// adversary. Those deliveries reach the ledger through deliver_bulk.
  detail::InBlockDeliveries in_block{};

  [[nodiscard]] detail::InBlockDeliveries in_block_deliveries() const {
    return in_block;
  }

  void deliver(graph::NodeId receiver, graph::NodeId sender) {
    ++result.ledger.total_deliveries;
    if (rt != nullptr) rt->deliveries.push_back({receiver, sender});
    if (adv != nullptr) {
      if (adv->is_jammer(sender)) {
        // The unique transmitter was a jammer: the receiver heard a clean
        // frame of noise, not the message.
        ++result.adversary.jammed_deliveries;
        return;
      }
      if (!adv->can_hear(receiver)) {
        ++result.adversary.suppressed_receptions;
        return;
      }
      if (adv->is_byzantine(sender)) {
        ++result.adversary.corrupted_deliveries;
        protocol.on_delivered_corrupted(receiver, sender, round);
        return;
      }
    }
    protocol.on_delivered(receiver, sender, round);
  }

  void collide(graph::NodeId receiver) {
    ++result.ledger.total_collisions;
    if (rt != nullptr) rt->collisions.push_back(receiver);
    if (adv != nullptr && !adv->can_hear(receiver)) return;
    protocol.on_collision(receiver, round);
  }

  // Aggregate accounting for listeners the protocol declared non-attentive
  // (see Protocol::attentive_listeners): ledger totals only, no callbacks.
  // Backends may only use these when no trace is being recorded.
  void deliver_bulk(std::uint64_t count) {
    result.ledger.total_deliveries += count;
  }

  void collide_bulk(std::uint64_t count) {
    result.ledger.total_collisions += count;
  }
};

/// The shared round loop, statically specialised per topology backend (no
/// per-round virtual or std::function indirection on the hot path). The
/// backend yields each round's delivery outcomes; everything else — the
/// transmit decisions, energy ledger, trace, completion logic — is
/// backend-independent.
template <typename Topology>
RunResult run_loop(Topology& topo, Protocol& protocol, Rng protocol_rng,
                   const RunOptions& options) {
  const graph::NodeId n = topo.num_nodes();
  RADNET_REQUIRE(n >= 1, "cannot simulate an empty network");

  RunResult result;
  result.ledger.reset(n);
  protocol.reset(n, std::move(protocol_rng));

  // Adversary layer (sim/adversary.hpp): engine-side, so it composes with
  // every backend. Inactive specs cost one null check per event.
  AdversaryState adversary;
  adversary.reset(n, options.adversary, result.adversary);
  const AdversaryState* adv = adversary.active() ? &adversary : nullptr;
  if (adv != nullptr && !adversary.jammers().empty()) {
    // Half-duplex jammers transmit every round and can never receive:
    // completion means "every honest node holds a valid copy".
    protocol.set_goal_exclusions(adversary.jammers());
  }
  // Sharding backends fan each round sweep out over this pool (nullptr =
  // serial); results are thread-count-invariant by construction, so this
  // only picks a schedule.
  topo.set_parallelism(resolve_pool(options.threads));

  std::vector<graph::NodeId> transmitters;
  std::vector<char> is_tx(n, 0);
  // Jammer injection appends to the transmitter list every round; reserve
  // once so the round loop stays allocation-free (dynamics.cpp pattern).
  if (adv != nullptr) adversary.reserve_for(transmitters);

  // Block-mergeable collision accounting: when the protocol declared
  // on_collision a no-op and no trace wants the per-listener events,
  // sampling backends may fold collisions into bulk ledger counts (one
  // merge per shard block instead of one callback per listener).
  const bool collisions_inert =
      !options.record_trace && protocol.collisions_inert();
  // In-block deliveries need the same conditions plus no adversary: the
  // adversary's receive-side filter and counters live in the serial sink.
  const bool in_block = !options.record_trace && adv == nullptr &&
                        protocol.deliveries_receiver_local();

  if (protocol.is_complete()) {
    result.completed = true;
    result.completion_round = 0;
    return result;
  }

  for (Round r = 0; r < options.max_rounds; ++r) {
    protocol.begin_round(r);
    if (adv != nullptr) adversary.begin_round(r, result.adversary);

    // Phase A: collect this round's transmitters. All decisions are made
    // before any delivery, matching the synchronous model.
    transmitters.clear();
    const auto candidates = protocol.candidates();
    if (candidates.empty() &&
        (options.stop_on_empty_candidates ||
         (options.run_to_quiescence && result.completed)))
      break;
    if (!protocol.sample_transmitters(r, transmitters)) {
      for (const graph::NodeId v : candidates) {
        RADNET_CHECK(v < n, "protocol candidate out of range");
        if (protocol.wants_transmit(v, r)) transmitters.push_back(v);
      }
    }
    if (adv != nullptr) {
      // Drops transmissions by crashed/exhausted radios (the protocol's
      // decisions — and its RNG consumption — are untouched; only the
      // physics changes), records + budget-charges the survivors, then
      // injects the jammers as forced transmitters.
      adversary.apply(transmitters, is_tx, result.ledger, result.adversary);
    } else {
      for (const graph::NodeId u : transmitters) {
        RADNET_CHECK(u < n, "protocol transmitter out of range");
        result.ledger.record_transmission(u);
        is_tx[u] = 1;
      }
    }

    // Phase B/C: this round's topology decides who hears what; events fire
    // in ascending receiver order (see topology.hpp).
    topo.begin_round(r);
    RoundTrace* rt = nullptr;
    if (options.record_trace) {
      result.trace.rounds.push_back({});
      rt = &result.trace.rounds.back();
      rt->round = r;
      rt->transmitters = transmitters;
      std::sort(rt->transmitters.begin(), rt->transmitters.end());
    }
    EngineSink sink{protocol, result, rt, r, adv};
    if (in_block) sink.in_block = {&protocol, r};
    // The attentive hint enables aggregate accounting in sampling backends;
    // a recorded trace needs every event, so the hint is dropped then.
    const std::optional<std::span<const graph::NodeId>> attentive =
        options.record_trace ? std::nullopt : protocol.attentive_listeners();
    topo.deliver({transmitters.data(), transmitters.size()}, is_tx,
                 options.half_duplex, options.delivery_path, attentive,
                 collisions_inert, sink);
    for (const graph::NodeId u : transmitters) is_tx[u] = 0;

    protocol.end_round(r);
    result.rounds_executed = r + 1;
    result.ledger.node_rounds =
        static_cast<std::uint64_t>(n) * result.rounds_executed;
    if (options.round_observer) options.round_observer(r);

    if (!result.completed && protocol.is_complete()) {
      result.completed = true;
      result.completion_round = r + 1;
      if (!options.run_to_quiescence) break;
    }
  }

  return result;
}

}  // namespace

RunResult Engine::run(const graph::Digraph& g, Protocol& protocol,
                      Rng protocol_rng, const RunOptions& options) {
  CsrTopology topo(g);
  return run_loop(topo, protocol, std::move(protocol_rng), options);
}

RunResult Engine::run(graph::TopologySequence& topology, Protocol& protocol,
                      Rng protocol_rng, const RunOptions& options) {
  DynamicCsrTopology topo(topology);
  return run_loop(topo, protocol, std::move(protocol_rng), options);
}

RunResult Engine::run(const ImplicitGnp& gnp, Protocol& protocol,
                      Rng protocol_rng, const RunOptions& options) {
  ImplicitGnpTopology topo(gnp);
  return run_loop(topo, protocol, std::move(protocol_rng), options);
}

RunResult Engine::run(const ImplicitDynamicGnp& gnp, Protocol& protocol,
                      Rng protocol_rng, const RunOptions& options) {
  ImplicitDynamicGnpTopology topo(gnp);
  return run_loop(topo, protocol, std::move(protocol_rng), options);
}

RunResult Engine::run(const ImplicitRgg& rgg, Protocol& protocol,
                      Rng protocol_rng, const RunOptions& options) {
  ImplicitRggTopology topo(rgg);
  return run_loop(topo, protocol, std::move(protocol_rng), options);
}

}  // namespace radnet::sim
