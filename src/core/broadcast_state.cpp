#include "core/broadcast_state.hpp"

#include <algorithm>
#include <cstring>

#include "support/require.hpp"

namespace radnet::core {

void BroadcastState::reset(NodeId n, NodeId source) {
  RADNET_REQUIRE(n >= 1, "BroadcastState needs n >= 1");
  RADNET_REQUIRE(source < n, "source out of range");
  n_ = n;
  flags_.assign(n, 0);
  informed_time_.assign(n, kNotInformed);
  if (active_capacity_ < n) {
    active_ = std::make_unique_for_overwrite<NodeId[]>(n);
    active_capacity_ = n;
  }
  active_count_ = 0;
  drops_.clear();
  has_deactivations_ = false;
  deactivate_all_ = false;
  excluded_count_ = 0;
  // The source holds the genuine content by definition.
  flags_[source] = kInformed | kValid;
  informed_count_ = 1;
  valid_count_ = 1;
  informed_time_[source] = 0;
  active_[active_count_++] = source;

  uninformed_.resize(n - 1);
  NodeId* out = uninformed_.data();
  for (NodeId v = 0; v < n; ++v)
    if (v != source) *out++ = v;
}

bool BroadcastState::deliver(NodeId v, Round round, bool activate,
                             bool copy_valid) {
  RADNET_REQUIRE(v < n_, "deliver out of range");
  const std::uint8_t f = flags_[v];
  if (f & kInformed) return false;  // repeats ignored: an informed-invalid
                                    // node never upgrades (it stopped caring)
  flags_[v] = f | kInformed | (copy_valid ? kValid : 0) |
              (activate ? kActivate : 0);
  std::atomic_ref<Round>(informed_time_[v])
      .store(round + 1, std::memory_order_relaxed);
  return true;
}

void BroadcastState::exclude_from_goal(std::span<const NodeId> nodes) {
  for (const NodeId v : nodes) {
    RADNET_REQUIRE(v < n_, "goal exclusion out of range");
    if (flags_[v] & kExcluded) continue;
    flags_[v] |= kExcluded;
    ++excluded_count_;
    if (flags_[v] & kValid) --valid_count_;
  }
}

void BroadcastState::deactivate(NodeId v) {
  RADNET_REQUIRE(v < n_, "deactivate out of range");
  flags_[v] |= kDeactivated;
  has_deactivations_ = true;
}

void BroadcastState::deactivate_at(NodeId i) {
  RADNET_REQUIRE(i < active_count_, "deactivate_at out of range");
  RADNET_REQUIRE(drops_.empty() || drops_.back() < i,
                 "deactivate_at positions must strictly ascend");
  drops_.push_back(i);
}

void BroadcastState::commit() {
  std::uint8_t* flags = flags_.data();
  NodeId* active = active_.get();
  if (deactivate_all_) {
    active_count_ = 0;
  } else if (has_deactivations_) {
    // Per-node rounds hold ids, not positions: flag the positional drops
    // too and filter the whole list.
    for (const NodeId i : drops_) flags[active[i]] |= kDeactivated;
    active_count_ = static_cast<NodeId>(
        std::remove_if(active, active + active_count_,
                       [flags](NodeId v) { return flags[v] & kDeactivated; }) -
        active);
  } else if (!drops_.empty()) {
    // Slide each run between two consecutive drops (the last one ends at
    // the list's end) down over the gaps; entries before the first drop
    // stay put.
    NodeId out = drops_[0];
    const std::size_t k = drops_.size();
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId lo = drops_[j] + 1;
      const NodeId hi = j + 1 < k ? drops_[j + 1] : active_count_;
      std::memmove(active + out, active + lo, (hi - lo) * sizeof(NodeId));
      out += hi - lo;
    }
    active_count_ = out;
  }
  drops_.clear();
  has_deactivations_ = false;
  deactivate_all_ = false;
  // One ascending pass: keep the still-uninformed in place, append the
  // round's activations, count the new valid copies. Only deliver() sets
  // kActivate and kValid on a listed node, and both imply kInformed.
  NodeId* list = uninformed_.data();
  const std::size_t m = uninformed_.size();
  std::size_t keep = 0;
  NodeId appended = active_count_;
  NodeId valid = 0;
  // Per entry: every store is unconditional and every cursor advances by
  // a 0/1 flag, so rounds that inform many nodes carry no data-dependent
  // branch. The speculative active[appended] store stays in bounds: v is
  // not active yet and the active list holds distinct nodes, so
  // appended < n here.
  const auto settle = [&](NodeId v) {
    const unsigned f = flags[v];
    list[keep] = v;
    keep += (f & kInformed) ^ kInformed;
    active[appended] = v;
    appended += (f & (kActivate | kDeactivated)) == kActivate;
    valid += (f & (kValid | kExcluded)) == kValid;
  };
  // Rounds that inform few nodes leave most runs of the list untouched: a
  // run whose flags OR to no kInformed is only shifted down (or left in
  // place before the first drop), not settled entry by entry.
  constexpr std::size_t kRun = 16;
  std::size_t i = 0;
  for (; i + kRun <= m; i += kRun) {
    unsigned any = 0;
    for (std::size_t j = 0; j < kRun; ++j) any |= flags[list[i + j]];
    if (any & kInformed) {
      for (std::size_t j = 0; j < kRun; ++j) settle(list[i + j]);
    } else {
      if (keep != i) std::memmove(list + keep, list + i, kRun * sizeof(NodeId));
      keep += kRun;
    }
  }
  for (; i < m; ++i) settle(list[i]);
  informed_count_ += static_cast<NodeId>(m - keep);
  valid_count_ += valid;
  active_count_ = appended;
  uninformed_.resize(keep);
}

}  // namespace radnet::core
