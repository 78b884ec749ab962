/// \file patterns.hpp
/// \brief Simulation pattern sets and node signatures.
///
/// A *simulation pattern* assigns one Boolean value per primary input
/// (§II-A); a pattern set packs many patterns word-parallel, 64 per
/// machine word, pattern i at bit position i of each input's bit string.
/// A *signature* is the ordered set of values a node produces under the
/// pattern set (see signature_store.hpp); exhaustive sets make
/// signatures truth tables.
///
/// **Layout.**  The words dimensioned at construction time (the *base* —
/// the initial random or exhaustive patterns) live in one flat
/// input-major arena at a fixed stride.  Words appended later by
/// `add_pattern` (the guided prologue's SAT witnesses, §IV-A) live in
/// *word-major tail blocks*: one flat `num_inputs`-sized block per
/// appended word, exactly mirroring `sim::signature_store`.  Appending
/// therefore never repacks the input-major arena, and one witness's
/// bits — one bit per input of the single open word — land in one
/// contiguous block.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace stps::sim {

/// Word-packed pattern set for a fixed number of inputs.
class pattern_set
{
public:
  pattern_set() = default;
  /// Empty set (0 patterns) over \p num_inputs inputs.
  explicit pattern_set(uint32_t num_inputs);

  /// Uniformly random patterns (deterministic in \p seed).
  static pattern_set random(uint32_t num_inputs, uint64_t num_patterns,
                            uint64_t seed);

  /// All 2^num_inputs input combinations (num_inputs ≤ 20); pattern i
  /// assigns input j the j-th bit of i.
  static pattern_set exhaustive(uint32_t num_inputs);

  uint32_t num_inputs() const noexcept { return num_inputs_; }
  uint64_t num_patterns() const noexcept { return num_patterns_; }
  std::size_t num_words() const noexcept
  {
    return (num_patterns_ + 63u) / 64u;
  }
  /// Words living in the input-major base arena; words at or beyond this
  /// index live in word-major tail blocks.
  std::size_t base_words() const noexcept { return stride_; }

  /// Word \p w of \p input's bit string; dispatches across the base
  /// arena and the tail blocks.
  uint64_t input_word(uint32_t input, std::size_t w) const noexcept
  {
    return w < stride_ ? row_data(input)[w] : tail_[w - stride_][input];
  }

  /// Contiguous bit string of \p input (num_words() words; trailing bits
  /// zero).  Valid only while every word lives in the base arena — i.e.
  /// before any counter-example spilled into a tail block — which holds
  /// for every initial-simulation use.
  std::span<const uint64_t> input_bits(uint32_t input) const;

  /// Copies \p input's first `out.size()` words into \p out (≤
  /// num_words()): one bulk copy for the base arena, per-word dispatch
  /// for tail words — the simulators' PI-row load, valid on pattern
  /// sets with appended counter-example words.
  void copy_input_bits(uint32_t input, std::span<uint64_t> out) const;

  bool bit(uint32_t input, uint64_t pattern) const;

  /// Pre-allocates base capacity for \p total_patterns patterns; no-op
  /// once tail words exist (tail blocks are per-word already).
  void reserve_patterns(uint64_t total_patterns);

  /// Appends one pattern (e.g. a SAT counter-example, §I).
  void add_pattern(const std::vector<bool>& assignment);

  /// Bulk-appends patterns (counter-examples batched before
  /// re-simulation).
  void add_patterns(std::span<const std::vector<bool>> assignments);

private:
  uint64_t* row_data(uint32_t input) noexcept
  {
    return bits_.data() + static_cast<std::size_t>(input) * stride_;
  }
  const uint64_t* row_data(uint32_t input) const noexcept
  {
    return bits_.data() + static_cast<std::size_t>(input) * stride_;
  }
  /// Grows the base stride to at least \p words; only legal while every
  /// word still lives in the base arena.
  void grow_stride(std::size_t words);

  uint32_t num_inputs_ = 0;
  uint64_t num_patterns_ = 0;
  std::size_t stride_ = 0;            // base words allocated per input
  std::vector<uint64_t> bits_;        // flat input-major base arena
  std::vector<std::vector<uint64_t>> tail_; // word-major appended words
};

} // namespace stps::sim
