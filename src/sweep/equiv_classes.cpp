#include "sweep/equiv_classes.hpp"

#include <algorithm>
#include <stdexcept>

namespace stps::sweep {

namespace {

/// splitmix64 finalizer: spreads exact partition keys over the
/// open-addressed scratch table.
uint64_t mix64(uint64_t x) noexcept
{
  x ^= x >> 30u;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27u;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31u;
  return x;
}

/// FNV-1a over a signature, normalized by phase; the final word is
/// restricted to its valid bits so zero padding is phase-neutral.
uint64_t signature_key(const sim::signature_store& sig, net::node n,
                       bool phase, uint64_t last_word_mask)
{
  const uint64_t flip = phase ? ~uint64_t{0} : 0u;
  const std::size_t words = sig.num_words();
  uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < words; ++i) {
    const uint64_t mask = i + 1u == words ? last_word_mask : ~uint64_t{0};
    h ^= (sig.word(n, i) ^ flip) & mask;
    h *= 1099511628211ull;
  }
  return h;
}

} // namespace

void equiv_classes::prepare_scratch(std::size_t count)
{
  std::size_t want = 16u;
  while (want < 2u * count) {
    want <<= 1u;
  }
  if (slot_key_.size() < want) {
    slot_key_.assign(want, 0u);
    slot_group_.assign(want, 0u);
    slot_stamp_.assign(want, 0u);
    stamp_ = 0u;
  }
  if (++stamp_ == 0u) { // stamp wrapped: every stale slot must invalidate
    std::fill(slot_stamp_.begin(), slot_stamp_.end(), 0u);
    stamp_ = 1u;
  }
}

uint32_t equiv_classes::partition_by_scratch_keys(std::size_t count)
{
  prepare_scratch(count);
  const std::size_t mask = slot_key_.size() - 1u;
  uint32_t groups = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const uint64_t key = keys_[i];
    std::size_t slot = mix64(key) & mask;
    for (;;) {
      if (slot_stamp_[slot] != stamp_) {
        slot_stamp_[slot] = stamp_;
        slot_key_[slot] = key;
        slot_group_[slot] = groups;
        group_of_[i] = groups++;
        break;
      }
      if (slot_key_[slot] == key) {
        group_of_[i] = slot_group_[slot];
        break;
      }
      slot = (slot + 1u) & mask;
    }
  }
  return groups;
}

std::size_t equiv_classes::apply_partition(uint32_t c, uint32_t num_groups,
                                           std::vector<uint32_t>* created_ids)
{
  const std::vector<net::node>& members = classes_[c];
  const std::size_t count = members.size();

  // Counting sort into gather_: stable, so each group inherits the
  // class's sorted member order and group 0 contains members.front().
  group_size_.assign(num_groups, 0u);
  for (std::size_t i = 0; i < count; ++i) {
    ++group_size_[group_of_[i]];
  }
  group_first_.resize(num_groups);
  group_cursor_.resize(num_groups);
  uint32_t offset = 0;
  for (uint32_t g = 0; g < num_groups; ++g) {
    group_first_[g] = offset;
    group_cursor_[g] = offset;
    offset += group_size_[g];
  }
  gather_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    gather_[group_cursor_[group_of_[i]]++] = members[i];
  }

  // Group 0 keeps id c; fresh sequential ids for the rest.
  const uint32_t base_id = static_cast<uint32_t>(classes_.size());
  for (uint32_t g = 1; g < num_groups; ++g) {
    const auto first = gather_.begin() + group_first_[g];
    new_class(std::vector<net::node>(first, first + group_size_[g]));
  }
  classes_[c].assign(gather_.begin(), gather_.begin() + group_size_[0]);
  dissolve_if_singleton(c);
  for (uint32_t g = 1; g < num_groups; ++g) {
    dissolve_if_singleton(base_id + g - 1u);
  }
  if (created_ids != nullptr) {
    for (uint32_t g = 1; g < num_groups; ++g) {
      created_ids->push_back(base_id + g - 1u);
    }
  }
  return num_groups - 1u;
}

void equiv_classes::build(const net::aig_network& aig,
                          const sim::signature_store& sig,
                          uint64_t last_word_mask)
{
  classes_.clear();
  live_classes_ = 0;
  class_id_.assign(aig.size(), no_class);
  phase_.assign(aig.size(), 0u);
  if (sig.num_words() == 0u) {
    return; // no simulation information, no candidates
  }

  // Candidate nodes in id order: constant zero, PIs, live gates.
  gather_.clear();
  gather_.push_back(0u);
  aig.foreach_pi([&](net::node n) { gather_.push_back(n); });
  aig.foreach_gate([&](net::node n) { gather_.push_back(n); });
  const std::size_t count = gather_.size();
  group_of_.resize(count);

  // Group by hash of the normalized signature via the dense scratch
  // table; a hash hit is verified against the group's representative by
  // a whole-row compare (final word masked), and a mismatch keeps
  // probing, so equal-hash but different-signature nodes end up in
  // distinct groups.
  const std::size_t last = sig.num_words() - 1u;
  const auto equal_normalized = [&](net::node a, net::node b) {
    const uint64_t flip =
        (phase_[a] != phase_[b]) ? ~uint64_t{0} : uint64_t{0};
    const uint64_t* ra = sig.row(a).data();
    const uint64_t* rb = sig.row(b).data();
    for (std::size_t i = 0; i < last; ++i) {
      if ((rb[i] ^ flip) != ra[i]) {
        return false;
      }
    }
    return ((rb[last] ^ flip) & last_word_mask) ==
           (ra[last] & last_word_mask);
  };

  prepare_scratch(count);
  const std::size_t mask = slot_key_.size() - 1u;
  group_first_.clear(); // representative element index per group
  uint32_t groups = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const net::node n = gather_[i];
    phase_[n] = sig.word(n, 0u) & 1u;
    const uint64_t key = signature_key(sig, n, phase_[n], last_word_mask);
    std::size_t slot = mix64(key) & mask;
    for (;;) {
      if (slot_stamp_[slot] != stamp_) {
        slot_stamp_[slot] = stamp_;
        slot_key_[slot] = key;
        slot_group_[slot] = groups;
        group_first_.push_back(static_cast<uint32_t>(i));
        group_of_[i] = groups++;
        break;
      }
      if (slot_key_[slot] == key &&
          equal_normalized(gather_[group_first_[slot_group_[slot]]], n)) {
        group_of_[i] = slot_group_[slot];
        break;
      }
      slot = (slot + 1u) & mask;
    }
  }

  // Classes for every group of two or more, in first-occurrence order.
  group_size_.assign(groups, 0u);
  for (std::size_t i = 0; i < count; ++i) {
    ++group_size_[group_of_[i]];
  }
  group_cursor_.resize(groups);
  uint32_t offset = 0;
  for (uint32_t g = 0; g < groups; ++g) {
    group_cursor_[g] = offset;
    offset += group_size_[g];
  }
  sorted_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    sorted_[group_cursor_[group_of_[i]]++] = gather_[i];
  }
  offset = 0;
  for (uint32_t g = 0; g < groups; ++g) {
    if (group_size_[g] >= 2u) {
      const auto first = sorted_.begin() + offset;
      new_class(std::vector<net::node>(first, first + group_size_[g]));
    }
    offset += group_size_[g];
  }
}

uint32_t equiv_classes::new_class(std::vector<net::node> nodes)
{
  const uint32_t id = static_cast<uint32_t>(classes_.size());
  for (const net::node n : nodes) {
    class_id_[n] = id;
  }
  classes_.push_back(std::move(nodes));
  ++live_classes_;
  return id;
}

std::size_t equiv_classes::refine_with_word(std::span<const uint64_t> column,
                                            uint64_t word_mask)
{
  std::size_t created = 0;
  const std::size_t existing = classes_.size();
  for (uint32_t c = 0; c < existing; ++c) {
    created += refine_class_with_word(c, column, word_mask);
  }
  return created;
}

std::size_t equiv_classes::refine_class_with_word(
    uint32_t c, std::span<const uint64_t> column, uint64_t word_mask,
    std::vector<uint32_t>* created_ids)
{
  const std::vector<net::node>& members = classes_.at(c);
  const std::size_t count = members.size();
  if (count < 2u) {
    return 0;
  }
  // Partition members by their normalized word value — allocation-free
  // through the dense scratch core.
  keys_.resize(count);
  group_of_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const net::node n = members[i];
    keys_[i] = (column[n] ^ (phase_[n] ? ~uint64_t{0} : 0u)) & word_mask;
  }
  const uint32_t groups = partition_by_scratch_keys(count);
  if (groups == 1u) {
    return 0;
  }
  return apply_partition(c, groups, created_ids);
}

std::size_t equiv_classes::split_by_keys(uint32_t c,
                                         const std::vector<uint64_t>& keys)
{
  const std::vector<net::node>& members = classes_.at(c);
  const std::size_t count = members.size();
  if (keys.size() != count) {
    throw std::invalid_argument{"split_by_keys: key count mismatch"};
  }
  if (count < 2u) {
    return 0;
  }
  keys_.assign(keys.begin(), keys.end());
  group_of_.resize(count);
  const uint32_t groups = partition_by_scratch_keys(count);
  if (groups == 1u) {
    return 0;
  }
  return apply_partition(c, groups, nullptr);
}

void equiv_classes::remove_member(net::node n)
{
  const uint32_t c = class_of(n);
  if (c == no_class) {
    return;
  }
  auto& members = classes_[c];
  members.erase(std::remove(members.begin(), members.end(), n),
                members.end());
  class_id_[n] = no_class;
  dissolve_if_singleton(c);
}

void equiv_classes::dissolve_class(uint32_t c)
{
  auto& members = classes_.at(c);
  if (members.empty()) {
    return;
  }
  for (const net::node n : members) {
    class_id_[n] = no_class;
  }
  std::vector<net::node>{}.swap(members); // release the storage too
  --live_classes_;
}

void equiv_classes::dissolve_if_singleton(uint32_t c)
{
  auto& members = classes_[c];
  if (members.size() != 1u) {
    return; // larger classes stay; empty ones were dissolved already
  }
  class_id_[members.front()] = no_class;
  members.clear();
  --live_classes_;
}

std::size_t equiv_classes::num_candidate_nodes() const
{
  std::size_t count = 0;
  for (const auto& c : classes_) {
    count += c.size();
  }
  return count;
}

} // namespace stps::sweep
