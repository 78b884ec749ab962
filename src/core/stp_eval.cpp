#include "core/stp_eval.hpp"

#include "stp/logic_matrix.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

namespace stps::core {

void stp_scratch::reserve(uint32_t max_vars)
{
  const std::size_t need =
      max_vars == 0u ? 1u : (std::size_t{1} << (max_vars - 1u));
  if (blocks_.size() < need) {
    blocks_.resize(need);
  }
}

uint64_t stp_evaluate_word(const tt::truth_table& table,
                           std::span<const uint64_t> inputs,
                           stp_scratch& scratch)
{
  const uint32_t k = table.num_vars();
  if (inputs.size() != k) {
    throw std::invalid_argument{"stp_evaluate_word: arity mismatch"};
  }
  // Table bits as all-ones/all-zeros masks, read straight from the
  // packed words: no per-bit call and no data-dependent branch.
  const uint64_t* const bits = table.words().data();
  const auto mask = [bits](uint64_t i) {
    return uint64_t{0} - ((bits[i >> 6u] >> (i & 63u)) & 1u);
  };
  if (k == 0u) {
    return mask(0u);
  }
  if (k == 1u) {
    const uint64_t x = inputs[0];
    return (x & mask(1u)) | (~x & mask(0u));
  }
  // First halving: consume the MSB variable straight from the table bits,
  // avoiding a 2^k block materialization.
  uint64_t* blocks = scratch.data();
  const uint64_t half = uint64_t{1} << (k - 1u);
  {
    const uint64_t x = inputs[k - 1u];
    for (uint64_t i = 0; i < half; ++i) {
      blocks[i] = (~x & mask(i)) | (x & mask(i + half));
    }
  }
  // Remaining halvings: one word multiplex per surviving block pair.
  for (uint32_t var = k - 1u; var-- > 0u;) {
    const uint64_t x = inputs[var];
    const uint64_t h = uint64_t{1} << var;
    for (uint64_t i = 0; i < h; ++i) {
      blocks[i] = (x & blocks[i + h]) | (~x & blocks[i]);
    }
  }
  return blocks[0];
}

bool stp_evaluate_single(const tt::truth_table& table,
                         std::span<const bool> inputs)
{
  if (inputs.size() != table.num_vars()) {
    throw std::invalid_argument{"stp_evaluate_single: arity mismatch"};
  }
  // The leading STP factor is the most-significant table variable, so the
  // LSB-first fanin order is reversed into factor order.
  const std::size_t k = inputs.size();
  const std::unique_ptr<bool[]> factors{new bool[k]};
  for (std::size_t i = 0; i < k; ++i) {
    factors[i] = inputs[k - 1u - i];
  }
  const stp::logic_matrix m{table};
  return m.apply(std::span<const bool>{factors.get(), k});
}

} // namespace stps::core
