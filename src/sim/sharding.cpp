#include "sim/sharding.hpp"

#include <algorithm>
#include <bit>

#include "support/thread_pool.hpp"

namespace radnet::sim::detail {

void pool_for_index(ThreadPool& pool, std::uint64_t chunks,
                    const std::function<void(std::uint64_t)>& body) {
  pool.parallel_for_index(chunks, body);
}

unsigned csr_block_shift(NodeId n, unsigned parallelism) {
  // Aim for ~4 blocks per thread so the pool's dynamic chunking can balance
  // skewed rounds; clamp to [2^8, 2^16]. The lower bound keeps the serial
  // merge's per-block bookkeeping negligible, the upper bound matches the
  // sampling backends' fixed block (beyond it the buffers stop fitting
  // nicely in cache anyway). Output never depends on this choice — CSR
  // delivery draws no randomness and the merge restores ascending listener
  // order across any block decomposition.
  const std::uint64_t want_blocks =
      std::max<std::uint64_t>(1, std::uint64_t{parallelism} * 4);
  const std::uint64_t target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(n) / want_blocks);
  const unsigned shift = target <= 1 ? 0 : std::bit_width(target - 1);
  return std::clamp(shift, 8u, 16u);
}

void AttentiveFlags::set_round(NodeId n, std::span<const NodeId> attentive) {
  if (flags_.size() < n) flags_.resize(n, 0);
  for (const NodeId v : attentive) flags_[v] = 1;
}

void AttentiveFlags::clear_round(std::span<const NodeId> attentive) {
  for (const NodeId v : attentive) flags_[v] = 0;
}

}  // namespace radnet::sim::detail
