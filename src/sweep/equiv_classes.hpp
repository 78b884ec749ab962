/// \file equiv_classes.hpp
/// \brief Complement-aware candidate equivalence classes.
///
/// Nodes that produce the same simulation signature *up to complement*
/// are candidates for merging (§II-C).  Signatures are normalized by
/// their first pattern bit, so a node and its inversion land in one
/// class; a member's *phase* is that first bit, and two members n, m are
/// conjectured to satisfy `n == m ⊕ (phase(n) ⊕ phase(m))`.  The
/// constant-zero node participates like any other node, which makes the
/// all-constant class (§IV, constant propagation) just another class
/// whose representative is node 0.  Classes only ever split: either by
/// new simulation words (counter-examples) or by exact resolution.
/// Class ids are never reused, so a split class keeps its id for the
/// group containing its lowest member and fresh ids for the rest.
///
/// All partitioning (the initial build and every split) runs through one
/// dense, epoch-stamped open-addressing core owned by the instance: the
/// scratch tables are allocated once and revalidated by bumping a stamp,
/// so the per-counter-example refinement hot path performs no heap
/// allocation unless a class actually splits.
#pragma once

#include "network/aig.hpp"
#include "sim/patterns.hpp"
#include "sim/signature_store.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace stps::sweep {

class equiv_classes
{
public:
  static constexpr uint32_t no_class = ~uint32_t{0};

  /// Groups the constant node and all live gates (and PIs) by normalized
  /// signature; singleton classes are dropped.  \p last_word_mask selects
  /// the valid bits of the final signature word (sim::tail_mask), so the
  /// zero padding cannot break complement normalization.
  void build(const net::aig_network& aig, const sim::signature_store& sig,
             uint64_t last_word_mask = ~uint64_t{0});

  /// Splits every class by one signature word per node id — \p column
  /// holds node n's word at index n (sim::open_word, the word the newest
  /// counter-examples landed in) — masked by \p word_mask.  Returns the
  /// number of new classes created.
  std::size_t refine_with_word(std::span<const uint64_t> column,
                               uint64_t word_mask = ~uint64_t{0});

  /// Splits a single class \p c by \p column (masked by \p word_mask),
  /// leaving every other class untouched — the lazy path of batched
  /// counter-example refinement.  Ids of classes split off are appended
  /// to \p created_ids when non-null (including ids whose group
  /// immediately dissolved to a singleton).  Returns the number of new
  /// classes created.
  std::size_t refine_class_with_word(uint32_t c,
                                     std::span<const uint64_t> column,
                                     uint64_t word_mask = ~uint64_t{0},
                                     std::vector<uint32_t>* created_ids
                                     = nullptr);

  /// Splits class \p c by caller-provided exact keys (e.g. window truth
  /// tables): members with equal keys stay together.  Returns the number
  /// of new classes created.
  std::size_t split_by_keys(uint32_t c, const std::vector<uint64_t>& keys);

  uint32_t class_of(net::node n) const
  {
    return n < class_id_.size() ? class_id_[n] : no_class;
  }
  /// Phase of a member: first signature bit at build time.
  bool phase(net::node n) const { return phase_[n] != 0u; }
  /// Conjectured complement relation between two members of one class.
  bool complemented(net::node a, net::node b) const
  {
    return phase(a) != phase(b);
  }

  const std::vector<net::node>& members(uint32_t c) const
  {
    return classes_.at(c);
  }
  std::size_t num_classes() const noexcept { return live_classes_; }
  std::size_t num_class_ids() const noexcept { return classes_.size(); }

  /// Removes a node from its class (after merge or don't-touch); classes
  /// shrinking to one member are dissolved.
  void remove_member(net::node n);

  /// Dissolves class \p c wholesale: every member becomes classless and
  /// the class goes dead (its id is not reused).  No-op on an already
  /// empty id.  Shard workers use this to drop the classes owned by
  /// other shards from their private copy.
  void dissolve_class(uint32_t c);

  /// Sum of members over all live classes.
  std::size_t num_candidate_nodes() const;

private:
  uint32_t new_class(std::vector<net::node> nodes);
  void dissolve_if_singleton(uint32_t c);

  /// Assigns `group_of_[i]` (groups numbered by first occurrence, so the
  /// group of element 0 is group 0) for `count` elements keyed by
  /// `keys_[i]`, via the epoch-stamped open-addressed scratch table.
  /// Returns the number of distinct groups.
  uint32_t partition_by_scratch_keys(std::size_t count);
  /// Grows the scratch table to hold \p count keys and invalidates every
  /// slot (amortized; no work when already large enough).
  void prepare_scratch(std::size_t count);
  /// Splits class \p c into the groups recorded in `group_of_`
  /// (`num_groups >= 2`); group 0 keeps id \p c.  Appends fresh ids to
  /// \p created_ids when non-null; returns the number of classes created.
  std::size_t apply_partition(uint32_t c, uint32_t num_groups,
                              std::vector<uint32_t>* created_ids);

  std::vector<std::vector<net::node>> classes_;
  std::vector<uint32_t> class_id_;
  /// Member phase as 0/1 bytes (not vector<bool>): the refinement key
  /// gather kernel reads it per node id.
  std::vector<uint8_t> phase_;
  std::size_t live_classes_ = 0;

  // Dense partition scratch: one open-addressed table (key, group,
  // validity stamp per slot) plus per-element key/group buffers and a
  // counting-sort gather buffer, all reused across refinements.
  std::vector<uint64_t> slot_key_;
  std::vector<uint32_t> slot_group_;
  std::vector<uint32_t> slot_stamp_;
  uint32_t stamp_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> group_of_;
  /// Per group: gather offset (apply_partition) or representative
  /// element index (build).
  std::vector<uint32_t> group_first_;
  std::vector<uint32_t> group_size_;
  std::vector<uint32_t> group_cursor_;
  std::vector<net::node> gather_;
  std::vector<net::node> sorted_;
};

} // namespace stps::sweep
