/// \file bitwise_sim.hpp
/// \brief Baseline word-parallel / per-bit simulators (the comparators of
/// Table I).
///
/// * `simulate_aig` is the mockturtle-style bit-parallel AIG simulator:
///   64 patterns per word, one AND/complement word operation per gate —
///   the `TA` baseline, which STP matches but does not beat.
/// * `simulate_klut_bitwise` is the conventional k-LUT simulator the
///   paper criticizes (§III, §V-A): for each pattern it extracts the
///   individual input bits, assembles a LUT index, and looks the output
///   bit up — no word parallelism.  This is the `TL` baseline the STP
///   simulator beats by ~7×.
/// * `open_word` absorbs every appended pattern — the guided prologue's
///   witnesses and the sweepers' counter-examples: one word per node id,
///   recomputed in place for every pattern.
#pragma once

#include "network/aig.hpp"
#include "network/klut.hpp"
#include "sim/patterns.hpp"
#include "sim/signature_store.hpp"

namespace stps::sim {

/// Word-parallel AIG simulation; `result[node]` has pattern words for all
/// live nodes (dead nodes keep zero words).
signature_store simulate_aig(const net::aig_network& aig,
                             const pattern_set& patterns);

/// Conventional per-bit k-LUT simulation (baseline of Table I, column TL).
signature_store simulate_klut_bitwise(const net::klut_network& klut,
                                      const pattern_set& patterns);

/// Precomputed fanin-literal arrays feeding the whole-AIG resimulation
/// loop of `open_word`.  Built once per sweep from a snapshot of every
/// node's fanin literals; the snapshot stays valid across sweeping's
/// substitutions because they rewire fanins to *function-identical*
/// signals (proven equivalences), so evaluating the snapshotted literals
/// produces byte-identical words to evaluating the current ones.
struct resim_plan
{
  std::vector<uint32_t> lit0; ///< fanin0 literal (2·node+compl), by id
  std::vector<uint32_t> lit1; ///< fanin1 literal, by id
  uint32_t first = 0;         ///< first gate id (1 + num_pis)
  uint32_t size = 0;          ///< aig.size() at snapshot time
};

/// Snapshots \p aig into a resimulation plan.  Every node id is
/// evaluated, dead gates included: substitutions are function-preserving
/// and a dead gate keeps the fanin fields it died with, so an id-order
/// pass over the whole node array yields each node's original function
/// under the patterns, even for class members that merged away.
resim_plan make_resim_plan(const net::aig_network& aig);

/// The one home of appended patterns — the guided prologue's witnesses
/// (§IV-A) and the sweepers' counter-examples (Alg. 2 lines 26-28): the
/// open pattern word as one *column* — node id n's word at index n.  The
/// PI bits live in the PI rows (ids 1..num_pis), so a pattern sets one
/// bit per input there and one id-order pass recomputes every gate row
/// through the resim_plan (dead gates included, same contract).  Classes
/// refine straight from the column and the prologue folds a full word
/// into per-node running values, so nobody reads a full word again: once
/// 64 patterns fill it the next pattern starts a fresh word, and memory
/// is one column, whatever the pattern count.
class open_word
{
public:
  /// Continues \p patterns over \p plan's network: the open word
  /// starts as their last word, evaluated for every node id.  \p plan
  /// must outlive the state (copies share it).
  open_word(const pattern_set& patterns, const resim_plan& plan);

  /// Appends one counter-example (one value per PI) and recomputes the
  /// column; a full word is zeroed first.
  void add_pattern(const std::vector<bool>& assignment);

  /// Initial patterns plus every counter-example.
  uint64_t num_patterns() const noexcept { return num_patterns_; }
  /// The open word holds 64 patterns: the next one starts a fresh word.
  bool full() const noexcept { return num_patterns_ % 64u == 0u; }
  /// Valid bits of the open word; bits beyond it are unspecified.
  uint64_t mask() const noexcept { return tail_mask(num_patterns_); }
  std::span<const uint64_t> column() const noexcept { return column_; }

private:
  void resimulate();

  const resim_plan* plan_;
  uint64_t num_patterns_;
  std::vector<uint64_t> column_;
};

/// Evaluates a single node under a single full input assignment (slow
/// reference path used by tests and the CEC debug checker).
bool evaluate_aig_node(const net::aig_network& aig, net::node n,
                       std::span<const bool> assignment);

} // namespace stps::sim
