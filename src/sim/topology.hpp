// Topology backends for the simulation engine — umbrella header.
//
// The engine's round loop is templated over a *topology backend*: the
// object that knows which receivers hear which transmitters. The backend
// families live in per-family headers under sim/backends/, all built on
// the shared sharded-sweep layer of sim/sharding.hpp:
//
//   * sim/backends/csr.hpp — the explicit CSR family (CsrTopology /
//     DynamicCsrTopology): walks a materialised graph::Digraph. The
//     any-topology oracle; three delivery strategies (DeliveryPath), all
//     listener-block-parallel with no RNG involved, so bit-identity at any
//     thread count holds by construction.
//
//   * sim/backends/implicit.hpp — the implicit G(n,p) backend
//     (ImplicitGnpTopology): never materialises the graph; samples each
//     listener's outcome per round directly from the transmitter count.
//     O(n) per round (O(expected hits) when sparse), zero graph memory.
//
//   * sim/backends/implicit_dynamic.hpp — the implicit *dynamic* backend
//     (ImplicitDynamicGnpTopology): extends the sampling family to link
//     churn, permanent node failures and density schedules p(t), with lazy
//     pair-state tracking in a bounded sketch. See that header (and the
//     README table) for which regimes are exact vs modelled.
//
//   * sim/backends/implicit_rgg.hpp — the implicit mobility-RGG backend
//     (ImplicitRggTopology): random-walk mobility over a random geometric
//     graph with the graph never materialised — O(n) position state, a
//     per-round cell grid, delivery resolved exactly from the <= 9
//     neighbouring cells. Exact in distribution for every protocol
//     (delivery is deterministic geometry; only the motion draws
//     randomness); the graph-free counterpart of graph::MobilityRgg.
//
// Every backend exposes the same contract, consumed by sim/engine.cpp:
//
//   NodeId num_nodes() const;
//   void   begin_round(std::uint32_t r);          // refresh per-round state
//   void   set_parallelism(ThreadPool* pool);     // nullptr = serial blocks
//   template <class Sink>
//   void   deliver(std::span<const NodeId> transmitters,
//                  const std::vector<char>& is_tx, bool half_duplex,
//                  DeliveryPath path,
//                  const std::optional<std::span<const NodeId>>& attentive,
//                  bool collisions_inert, Sink& sink);
//
// where the sink receives deliver(receiver, sender) / collide(receiver)
// callbacks in ascending receiver order, exactly once per receiver that
// heard at least one transmitter (transmitters themselves excluded under
// half-duplex). `attentive` is the optional protocol hint from
// Protocol::attentive_listeners: sampling backends may restrict per-event
// callbacks to those listeners and fold everyone else's outcome counts
// into the sink's deliver_bulk/collide_bulk aggregates (ledger totals stay
// exactly distributed; event order follows the hint's order), and every
// backend folds deliveries landing outside the hint into per-block bulk
// counts during swept rounds. `collisions_inert` (Protocol::collisions_inert
// && no trace) likewise lets backends report collisions through
// collide_bulk counts instead of per-receiver callbacks.
//
// Within-trial parallelism: rounds decompose into contiguous listener
// blocks (sim/sharding.hpp) executed on the engine's thread pool and
// merged serially in listener order, which keeps the protocol
// single-threaded — apart from receiver-local deliveries
// (Protocol::deliveries_receiver_local), which the blocks apply in place
// and which commute. Sampling backends key every RNG draw by (round, block)
// (StreamKey counter keying, support/rng.hpp) so their sweeps are
// bit-identical at any thread count; the CSR family involves no RNG at
// all, so its parallel delivery is bit-identical by order-independence of
// hit counts. tests/sim/thread_invariance_test.cpp pins both guarantees.
#pragma once

#include "sim/backends/csr.hpp"
#include "sim/backends/implicit.hpp"
#include "sim/backends/implicit_dynamic.hpp"
#include "sim/backends/implicit_rgg.hpp"
#include "sim/sharding.hpp"
