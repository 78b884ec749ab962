#include "sim/signature_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace stps::sim {

void signature_store::reset(std::size_t num_nodes, std::size_t num_words)
{
  num_nodes_ = num_nodes;
  num_words_ = num_words;
  stride_ = num_words;
  data_.assign(num_nodes * stride_, 0u);
  tail_.clear();
}

void signature_store::assign_row(std::size_t n,
                                 std::span<const uint64_t> values)
{
  assert(num_words_ == stride_ && "assign_row(): store has tail words");
  if (values.size() != num_words_) {
    throw std::invalid_argument{"signature_store: row width mismatch"};
  }
  std::copy(values.begin(), values.end(), data_.data() + n * stride_);
}

void signature_store::fill_row(std::size_t n, uint64_t value)
{
  assert(num_words_ == stride_ && "fill_row(): store has tail words");
  uint64_t* p = data_.data() + n * stride_;
  std::fill(p, p + num_words_, value);
}

void signature_store::append_word()
{
  // Word-major tail block: the node-major base is never repacked, and
  // the appended word's bits are contiguous across nodes.
  tail_.emplace_back(num_nodes_, 0u);
  ++num_words_;
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
  if (num_words_ > stride_) {
    for (uint64_t& w : tail_.back()) {
      w &= mask;
    }
    return;
  }
  uint64_t* last = data_.data() + num_words_ - 1u;
  for (std::size_t n = 0; n < num_nodes_; ++n, last += stride_) {
    *last &= mask;
  }
}

} // namespace stps::sim
