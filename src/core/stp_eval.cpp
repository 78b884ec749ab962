#include "core/stp_eval.hpp"

#include "stp/logic_matrix.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

namespace stps::core {

namespace {

/// Signature words one matrix pass evaluates together.
constexpr std::size_t block_words = 8u;

/// Scratch words for a k-input table: 2^k table masks, then the
/// 2^(k-1) surviving blocks of the first halving.
std::size_t scratch_words(uint32_t k) noexcept
{
  return (std::size_t{1} << k) * (1u + block_words / 2u);
}

/// Matrix pass over the W words starting at word \p w, for k >= 1.
/// \p masks holds the 2^k table bits as word masks; \p blocks has room
/// for 2^(k-1) blocks of W words.
template <std::size_t W>
void matrix_pass(const uint64_t* masks, uint32_t k,
                 std::span<const uint64_t* const> inputs, std::size_t w,
                 uint64_t* blocks, uint64_t* out)
{
  // Input words are copied to a local block so the compiler knows they
  // cannot alias the blocks being written.
  uint64_t x[W];
  // First halving: the MSB variable selects straight between table masks,
  // avoiding a 2^k block materialization.
  const std::size_t half = std::size_t{1} << (k - 1u);
  std::copy_n(inputs[k - 1u] + w, W, x);
  for (std::size_t i = 0; i < half; ++i) {
    const uint64_t lo = masks[i];
    const uint64_t hi = masks[i + half];
    uint64_t* b = blocks + i * W;
    for (std::size_t j = 0; j < W; ++j) {
      b[j] = (x[j] & hi) | (~x[j] & lo);
    }
  }
  // Remaining halvings: one W-wide multiplex per surviving block pair.
  for (uint32_t var = k - 1u; var-- > 0u;) {
    const std::size_t h = std::size_t{1} << var;
    std::copy_n(inputs[var] + w, W, x);
    for (std::size_t i = 0; i < h; ++i) {
      uint64_t* lo = blocks + i * W;
      const uint64_t* hi = blocks + (i + h) * W;
      for (std::size_t j = 0; j < W; ++j) {
        lo[j] = (x[j] & hi[j]) | (~x[j] & lo[j]);
      }
    }
  }
  std::copy_n(blocks, W, out + w);
}

} // namespace

void stp_scratch::reserve(uint32_t max_vars)
{
  const std::size_t need = scratch_words(max_vars);
  if (blocks_.size() < need) {
    blocks_.resize(need);
  }
}

void stp_evaluate_rows(const tt::truth_table& table,
                       std::span<const uint64_t* const> inputs,
                       uint64_t* out, std::size_t num_words,
                       stp_scratch& scratch)
{
  const uint32_t k = table.num_vars();
  if (inputs.size() != k) {
    throw std::invalid_argument{"stp_evaluate_rows: arity mismatch"};
  }
  if (scratch.size() < scratch_words(k)) {
    throw std::invalid_argument{"stp_evaluate_rows: scratch too small"};
  }
  // Table bits as all-ones/all-zeros masks, once per gate, read straight
  // from the packed words: no per-bit call and no data-dependent branch.
  uint64_t* const masks = scratch.data();
  uint64_t* const blocks = masks + (std::size_t{1} << k);
  const uint64_t* const bits = table.words().data();
  for (std::size_t i = 0; i < (std::size_t{1} << k); ++i) {
    masks[i] = uint64_t{0} - ((bits[i >> 6u] >> (i & 63u)) & 1u);
  }
  if (k == 0u) {
    std::fill_n(out, num_words, masks[0]);
    return;
  }
  std::size_t w = 0;
  for (; w + block_words <= num_words; w += block_words) {
    matrix_pass<block_words>(masks, k, inputs, w, blocks, out);
  }
  for (; w < num_words; ++w) {
    matrix_pass<1u>(masks, k, inputs, w, blocks, out);
  }
}

uint64_t stp_evaluate_word(const tt::truth_table& table,
                           std::span<const uint64_t> inputs,
                           stp_scratch& scratch)
{
  std::vector<const uint64_t*> rows(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    rows[i] = &inputs[i];
  }
  uint64_t out = 0;
  stp_evaluate_rows(table, rows, &out, 1u, scratch);
  return out;
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
