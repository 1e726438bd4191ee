// The Czumaj–Rytter known-diameter broadcast [11], transformed as the paper
// describes (§4: "stop nodes from transmitting after a certain number of
// rounds") into a bounded-energy protocol.
//
// It is the same sequence-broadcast machinery as Algorithm 3 but with the
// floorless distribution alpha' and a correspondingly *longer* active
// window: because min_k alpha'_k lacks the 1/(2 log n) floor, the worst-case
// per-neighbour delivery probability drops by a factor Theta(log(n/D)), so a
// node must stay awake ~beta * log(n/D) * log^2 n rounds to deliver w.h.p.
// (the paper: expected Theta(log^2 n) transmissions per node versus
// Algorithm 3's O(log^2 n / log(n/D))). The E6 bench runs both at equal
// success rates and measures exactly this energy gap.
#pragma once

#include "core/broadcast_general.hpp"

namespace radnet::baselines {

/// The CR-known-D protocol for (n, D) as GeneralBroadcastProtocol
/// parameters: distribution alpha'(n, D), window
/// ceil(beta * lambda * log2(n)^2).
[[nodiscard]] core::GeneralBroadcastParams czumaj_rytter_params(
    std::uint64_t n, std::uint64_t diameter, double beta,
    graph::NodeId source = 0);

/// The CR window ceil(beta * lambda * log2(n)^2).
[[nodiscard]] sim::Round czumaj_rytter_window(std::uint64_t n,
                                              std::uint64_t diameter,
                                              double beta);

}  // namespace radnet::baselines
