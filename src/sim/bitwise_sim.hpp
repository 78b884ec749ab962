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
/// * `resimulate_aig_all_last_word` is the incremental path used when a
///   witness pattern is appended: only the final word is recomputed.
/// * `open_word` is the sweepers' counter-example state: one word per
///   node id, recomputed in place for every counter-example.
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

/// Recomputes only the last signature word after patterns were appended
/// (growing the store by a word if the pattern set acquired a new one),
/// evaluating *every* node id — dead gates included.  Substitutions are
/// function-preserving and a dead gate keeps the fanin fields it died
/// with, so an id-order pass over the whole node array yields each
/// node's original function under the patterns, even for class members
/// that merged away.  The word is computed from the pattern words
/// alone; earlier signature words are never read.
void resimulate_aig_all_last_word(const net::aig_network& aig,
                                  const pattern_set& patterns,
                                  signature_store& signatures);

/// Precomputed fanin-literal arrays + dependency-safety bitmap feeding
/// the vectorized whole-AIG resimulation kernel (sim/simd.hpp).  Built
/// once per sweep from a snapshot of every node's fanin
/// literals; the snapshot stays valid across sweeping's substitutions
/// because they rewire fanins to *function-identical* signals (proven
/// equivalences), so evaluating the snapshotted literals produces
/// byte-identical words to evaluating the current ones.  `safe4` marks
/// the 4-blocks (counted from `first`) whose eight fanin ids all
/// precede the block, i.e. blocks free of intra-block dependencies.
struct resim_plan
{
  std::vector<uint32_t> lit0; ///< fanin0 literal (2·node+compl), by id
  std::vector<uint32_t> lit1; ///< fanin1 literal, by id
  std::vector<uint64_t> safe4; ///< 4-block dependency-safety bitmap
  uint32_t first = 0;          ///< first gate id (1 + num_pis)
  uint32_t size = 0;           ///< aig.size() at snapshot time
};

/// Snapshots \p aig into a resimulation plan (dead gates included, same
/// id-order total-evaluation contract as `resimulate_aig_all_last_word`).
resim_plan make_resim_plan(const net::aig_network& aig);

/// Plan-driven variant of `resimulate_aig_all_last_word`: identical
/// results, vectorized over dependency-safe 4-blocks when the store is
/// word-major at the open word (the guided prologue's witness words;
/// otherwise falls back to the plain variant).
void resimulate_aig_all_last_word(const net::aig_network& aig,
                                  const pattern_set& patterns,
                                  signature_store& signatures,
                                  const resim_plan& plan);

/// The sweepers' counter-example state (Alg. 2 lines 26-28): the open
/// pattern word as one *column* — node id n's word at index n.  The PI
/// bits live in the PI rows (ids 1..num_pis), so a counter-example sets
/// one bit per input there and `simd::resim_words` recomputes every
/// gate row through the resim_plan (dead gates included, same contract).
/// Classes refine straight from the column and never read a full word
/// again, so once 64 patterns fill it the next counter-example starts a
/// fresh word: memory is one column, whatever the counter-example count.
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
