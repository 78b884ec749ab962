#include "sim/signature_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace stps::sim {

void signature_store::reset(std::size_t num_nodes, std::size_t num_words)
{
  num_nodes_ = num_nodes;
  num_words_ = num_words;
  data_.assign(num_nodes * num_words, 0u);
}

void signature_store::assign_row(std::size_t n,
                                 std::span<const uint64_t> values)
{
  if (values.size() != num_words_) {
    throw std::invalid_argument{"signature_store: row width mismatch"};
  }
  std::ranges::copy(values, row(n).begin());
}

void signature_store::fill_row(std::size_t n, uint64_t value)
{
  std::ranges::fill(row(n), value);
}

void signature_store::mask_tail(uint64_t num_patterns)
{
  if (num_words_ == 0u) {
    return;
  }
  const uint64_t mask = tail_mask(num_patterns);
  if (mask == ~uint64_t{0}) {
    return;
  }
  uint64_t* last = data_.data() + num_words_ - 1u;
  for (std::size_t n = 0; n < num_nodes_; ++n, last += num_words_) {
    *last &= mask;
  }
}

} // namespace stps::sim
