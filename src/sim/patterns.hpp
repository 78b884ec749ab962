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
/// **Layout.**  One flat input-major arena at a fixed stride: word `w` of
/// input `i` is `bits_[i * stride + w]`.  `add_pattern` grows the stride
/// geometrically, so appending stays amortized O(num_inputs) per pattern.
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
  /// Word \p w of \p input's bit string.
  uint64_t input_word(uint32_t input, std::size_t w) const noexcept
  {
    return row_data(input)[w];
  }

  /// Contiguous bit string of \p input (num_words() words; trailing bits
  /// zero).
  std::span<const uint64_t> input_bits(uint32_t input) const;

  bool bit(uint32_t input, uint64_t pattern) const;

  /// Appends one pattern (e.g. a SAT counter-example, §I).
  void add_pattern(const std::vector<bool>& assignment);

private:
  uint64_t* row_data(uint32_t input) noexcept
  {
    return bits_.data() + static_cast<std::size_t>(input) * stride_;
  }
  const uint64_t* row_data(uint32_t input) const noexcept
  {
    return bits_.data() + static_cast<std::size_t>(input) * stride_;
  }
  /// Grows the stride to at least \p words (at least doubling it).
  void grow_stride(std::size_t words);

  uint32_t num_inputs_ = 0;
  uint64_t num_patterns_ = 0;
  std::size_t stride_ = 0;     // words allocated per input
  std::vector<uint64_t> bits_; // flat input-major arena
};

} // namespace stps::sim
