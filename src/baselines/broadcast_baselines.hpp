// The broadcast baselines, as parameter sets of Algorithm 3's class
// (core/broadcast_general.hpp): each builder returns the round schedule,
// window, horizon and activation cut-off of one classic protocol.
//
// * Flooding: every informed node transmits in every round, forever. In the
//   radio model it is a cautionary baseline: as soon as a node has two
//   informed in-neighbours every round collides and the node is never
//   informed. It succeeds only on collision-free topologies (paths, trees
//   traversed layer by layer) and burns one transmission per node per round.
//
// * Fixed probability q — the algorithm class of the lower-bound
//   experiments (§4.2). Observation 4.3 and Theorem 4.4 reason about
//   oblivious algorithms whose per-round send probability is time-invariant.
//   On the Observation 4.3 network destination d_i is informed in a round
//   with probability 2q(1-q), and any such schedule needs a sum of per-round
//   probabilities >= log n / 4 per intermediate — >= n log n / 2 expected
//   transmissions in total — to succeed with probability 1 - 1/n. E8 sweeps
//   q and the round budget and reproduces that threshold.
//
// * Decay (Bar-Yehuda, Goldreich and Itai [3]): phases of ceil(log2 n) + 1
//   rounds; in round j of a phase every informed node transmits with
//   probability 2^{-j}, so for any receiver some j puts about one
//   transmitting in-neighbour in expectation. O((D + log n) log n) time
//   w.h.p. and Theta(log n) transmissions per node per phase-window.
//   `active_phases` bounds the phases a node takes part in after being
//   informed (0 = forever), so energy comparisons can give it Algorithm 3's
//   window.
//
// * Elsässer–Gasieniec [12] (SPAA 2005), the random-graph broadcast
//   Algorithm 1 improves on (§1.1). On G(n,p) with d = np and
//   T = floor(log n / log d) (Lemma 3.1: D = T + 1 w.h.p.):
//     Phase 1 (T rounds): every informed node transmits in every round, so
//       an early informee transmits up to T times — Algorithm 1's nodes go
//       passive after their single Phase-1 shot;
//     Phase 2 (round T): probability n/d^{T+1} = 1/(d^T p), Algorithm 1's
//       density;
//     Phase 3 (ceil(phase3_factor * log2 n) rounds): probability 1/d.
//   Only nodes informed in the first two phases transmit in Phase 3; every
//   node goes passive when the budget T + 1 + Phase 3 runs out (the
//   params' horizon). Time matches Algorithm 1 at O(log n) w.h.p.; E11
//   measures the energy.
//
// * Czumaj–Rytter known-D broadcast [11], made bounded-energy as the paper
//   describes (§4: "stop nodes from transmitting after a certain number of
//   rounds"): Algorithm 3's machinery with the floorless alpha' and a
//   *longer* window. Without the 1/(2 log n) floor the worst-case
//   per-neighbour delivery probability drops by Theta(log(n/D)), so a node
//   stays awake ~beta * log(n/D) * log^2 n rounds (expected Theta(log^2 n)
//   transmissions per node versus Algorithm 3's O(log^2 n / log(n/D))).
//   E6 runs both at equal success rates and measures that gap.
#pragma once

#include <cstdint>

#include "core/broadcast_general.hpp"

namespace radnet::baselines {

using graph::NodeId;

/// Flooding from `source`; display name "flooding".
[[nodiscard]] core::GeneralBroadcastParams flooding_params(NodeId source = 0);

/// Every informed node transmits with probability q in (0, 1] while
/// r < t_u + window (window 0 = forever); display name "fixed(q=<q>)".
[[nodiscard]] core::GeneralBroadcastParams fixed_params(
    std::uint64_t n, double q, NodeId source = 0, sim::Round window = 0);

/// Decay's phase length ceil(log2 n) + 1.
[[nodiscard]] sim::Round decay_phase_length(std::uint64_t n);

/// Decay with nodes active for `active_phases` phases after being informed
/// (0 = forever); display name "decay".
[[nodiscard]] core::GeneralBroadcastParams decay_params(
    std::uint64_t n, NodeId source = 0, std::uint32_t active_phases = 0);

/// Elsässer–Gasieniec on G(n, p); display name "eg2005". The result's
/// horizon is the protocol's round budget.
[[nodiscard]] core::GeneralBroadcastParams eg2005_params(
    std::uint64_t n, double p, NodeId source = 0, double phase3_factor = 32.0);

/// The CR-known-D protocol for (n, D): distribution alpha'(n, D), window
/// ceil(beta * lambda * log2(n)^2); display name "czumaj-rytter".
[[nodiscard]] core::GeneralBroadcastParams czumaj_rytter_params(
    std::uint64_t n, std::uint64_t diameter, double beta, NodeId source = 0);

/// The CR window ceil(beta * lambda * log2(n)^2).
[[nodiscard]] sim::Round czumaj_rytter_window(std::uint64_t n,
                                              std::uint64_t diameter,
                                              double beta);

}  // namespace radnet::baselines
