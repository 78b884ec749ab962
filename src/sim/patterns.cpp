#include "sim/patterns.hpp"

#include "sim/signature_store.hpp" // tail_mask

#include <algorithm>
#include <random>
#include <stdexcept>

namespace stps::sim {

pattern_set::pattern_set(uint32_t num_inputs) : num_inputs_{num_inputs} {}

void pattern_set::grow_stride(std::size_t words)
{
  if (words <= stride_) {
    return;
  }
  const std::size_t new_stride =
      std::max({words, stride_ * 2u, std::size_t{2}});
  std::vector<uint64_t> grown(
      static_cast<std::size_t>(num_inputs_) * new_stride, 0u);
  for (uint32_t i = 0; i < num_inputs_; ++i) {
    std::copy_n(bits_.data() + static_cast<std::size_t>(i) * stride_, stride_,
                grown.data() + static_cast<std::size_t>(i) * new_stride);
  }
  bits_ = std::move(grown);
  stride_ = new_stride;
}

pattern_set pattern_set::random(uint32_t num_inputs, uint64_t num_patterns,
                                uint64_t seed)
{
  pattern_set p{num_inputs};
  p.num_patterns_ = num_patterns;
  const std::size_t words = p.num_words();
  p.grow_stride(words);
  std::mt19937_64 rng{seed};
  const uint64_t tail = tail_mask(num_patterns);
  for (uint32_t i = 0; i < num_inputs; ++i) {
    uint64_t* row = p.row_data(i);
    for (std::size_t w = 0; w < words; ++w) {
      row[w] = rng();
    }
    if (words != 0u) {
      row[words - 1u] &= tail;
    }
  }
  return p;
}

pattern_set pattern_set::exhaustive(uint32_t num_inputs)
{
  if (num_inputs > 20u) {
    throw std::invalid_argument{"exhaustive: too many inputs"};
  }
  pattern_set p{num_inputs};
  p.num_patterns_ = uint64_t{1} << num_inputs;
  const std::size_t words = p.num_words();
  p.grow_stride(words);
  for (uint32_t input = 0; input < num_inputs; ++input) {
    uint64_t* row = p.row_data(input);
    if (input < 6u) {
      // Repeating in-word projection masks.
      static constexpr uint64_t masks[6] = {
          0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull,
          0xf0f0f0f0f0f0f0f0ull, 0xff00ff00ff00ff00ull,
          0xffff0000ffff0000ull, 0xffffffff00000000ull};
      for (std::size_t w = 0; w < words; ++w) {
        row[w] = masks[input];
      }
    } else {
      const std::size_t period = std::size_t{1} << (input - 6u);
      for (std::size_t i = 0; i < words; ++i) {
        row[i] = (i / period) & 1u ? ~uint64_t{0} : 0u;
      }
    }
    if (p.num_patterns_ < 64u) {
      row[words - 1u] &= (uint64_t{1} << p.num_patterns_) - 1u;
    }
  }
  return p;
}

std::span<const uint64_t> pattern_set::input_bits(uint32_t input) const
{
  if (input >= num_inputs_) {
    throw std::out_of_range{"input_bits: no such input"};
  }
  return {row_data(input), num_words()};
}

bool pattern_set::bit(uint32_t input, uint64_t pattern) const
{
  if (input >= num_inputs_) {
    throw std::out_of_range{"bit: no such input"};
  }
  return (input_word(input, pattern >> 6u) >> (pattern & 63u)) & 1u;
}

void pattern_set::add_pattern(const std::vector<bool>& assignment)
{
  if (assignment.size() != num_inputs_) {
    throw std::invalid_argument{"add_pattern: arity mismatch"};
  }
  const std::size_t word = num_patterns_ >> 6u;
  const uint64_t mask = uint64_t{1} << (num_patterns_ & 63u);
  grow_stride(word + 1u);
  ++num_patterns_;
  for (uint32_t i = 0; i < num_inputs_; ++i) {
    if (assignment[i]) {
      row_data(i)[word] |= mask;
    }
  }
}

} // namespace stps::sim
