/// \file signature_store.hpp
/// \brief Flat node-major base arena + word-major tail blocks for
/// simulation signatures.
///
/// A *signature* is the ordered set of values a node produces under a
/// pattern set, one word per 64 patterns.  The words dimensioned at
/// `reset` time (the *base*) live in one contiguous node-major buffer at
/// a fixed stride, so a whole simulation run touches memory linearly
/// instead of chasing one heap allocation per node.  Words appended
/// later by `append_word` (the guided prologue's witness words) live in
/// *word-major tail blocks*: one flat `num_nodes`-sized block per
/// appended word.  Appending therefore never repacks the node-major
/// arena, and the hot witness accesses — every node's bits of the one
/// open word — are contiguous.
///
/// Layout: word `w` of node `n` is `data_[n * stride_ + w]` for
/// `w < base_words()`, and `tail[w - base_words()][n]` otherwise; `word`
/// and the `operator[]` row views dispatch.  The contiguous-span
/// accessors (`row`, `assign_row`, `fill_row`) address the node-major
/// base only and require `num_words() == base_words()` — i.e. stores
/// that have not appended tail words, which is every simulator-facing
/// use.
///
/// Simulators guarantee the *canonical tail* invariant — bits at
/// positions at or beyond `num_patterns` in the final word are zero, so
/// whole-word signature comparison is meaningful — by calling
/// `mask_tail`, the single place the invariant is enforced.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace stps::sim {

/// Mask selecting the valid bits of the final signature word.
constexpr uint64_t tail_mask(uint64_t num_patterns) noexcept
{
  return (num_patterns % 64u) == 0u
             ? ~uint64_t{0}
             : (uint64_t{1} << (num_patterns % 64u)) - 1u;
}

class signature_store
{
public:
  /// Read-only view of one node's words; comparable against other rows
  /// and against plain word vectors, and indexable per word.  The view
  /// dispatches through the store, so it sees base and tail words alike.
  class row_view
  {
  public:
    row_view() = default;
    row_view(const signature_store* store, std::size_t node) noexcept
        : store_{store}, node_{node}
    {
    }

    std::size_t size() const noexcept
    {
      return store_ != nullptr ? store_->num_words() : 0u;
    }
    bool empty() const noexcept { return size() == 0u; }
    uint64_t operator[](std::size_t w) const noexcept
    {
      return store_->word(node_, w);
    }

    friend bool operator==(row_view a, row_view b) noexcept
    {
      if (a.size() != b.size()) {
        return false;
      }
      for (std::size_t w = 0; w < a.size(); ++w) {
        if (a[w] != b[w]) {
          return false;
        }
      }
      return true;
    }
    friend bool operator==(row_view a, const std::vector<uint64_t>& b)
    {
      if (a.size() != b.size()) {
        return false;
      }
      for (std::size_t w = 0; w < a.size(); ++w) {
        if (a[w] != b[w]) {
          return false;
        }
      }
      return true;
    }

  private:
    const signature_store* store_ = nullptr;
    std::size_t node_ = 0;
  };

  signature_store() = default;
  /// Zero-initialized store of \p num_nodes rows × \p num_words words.
  signature_store(std::size_t num_nodes, std::size_t num_words)
  {
    reset(num_nodes, num_words);
  }

  /// Re-dimensions to \p num_nodes × \p num_words, all words zero.
  void reset(std::size_t num_nodes, std::size_t num_words);

  std::size_t size() const noexcept { return num_nodes_; }
  std::size_t num_words() const noexcept { return num_words_; }
  /// Words living in the node-major base arena (the `reset` dimensions);
  /// words at or beyond this index live in word-major tail blocks.
  std::size_t base_words() const noexcept { return stride_; }

  row_view operator[](std::size_t n) const noexcept { return {this, n}; }
  /// Contiguous node-major row; valid only while no tail words exist
  /// (`num_words() == base_words()`), which holds for every
  /// simulator-facing store.
  std::span<uint64_t> row(std::size_t n) noexcept
  {
    assert(num_words_ == stride_ && "row(): store has tail words");
    return {data_.data() + n * stride_, num_words_};
  }
  std::span<const uint64_t> row(std::size_t n) const noexcept
  {
    assert(num_words_ == stride_ && "row(): store has tail words");
    return {data_.data() + n * stride_, num_words_};
  }

  uint64_t word(std::size_t n, std::size_t w) const noexcept
  {
    return w < stride_ ? data_[n * stride_ + w] : tail_[w - stride_][n];
  }
  uint64_t& word(std::size_t n, std::size_t w) noexcept
  {
    return w < stride_ ? data_[n * stride_ + w] : tail_[w - stride_][n];
  }

  /// Contiguous view of all nodes' bits of tail word \p w (requires
  /// `w >= base_words()`): element n is node n's word.
  std::span<uint64_t> tail_word(std::size_t w) noexcept
  {
    return {tail_[w - stride_].data(), num_nodes_};
  }
  std::span<const uint64_t> tail_word(std::size_t w) const noexcept
  {
    return {tail_[w - stride_].data(), num_nodes_};
  }

  /// Copies \p values into row \p n (must have exactly num_words words).
  void assign_row(std::size_t n, std::span<const uint64_t> values);
  /// Sets every word of row \p n to \p value.
  void fill_row(std::size_t n, uint64_t value);

  /// Appends one zeroed word to every row (for witness patterns spilling
  /// into a fresh word).  The word is a word-major tail block:
  /// one O(size) allocation, never a repack of the node-major base.
  void append_word();

  /// Re-establishes the canonical-tail invariant: bits at or beyond
  /// \p num_patterns in the final word are cleared on every row.
  void mask_tail(uint64_t num_patterns);

private:
  std::vector<uint64_t> data_;                ///< node-major base arena
  std::vector<std::vector<uint64_t>> tail_;   ///< word-major appended words
  std::size_t num_nodes_ = 0;
  std::size_t num_words_ = 0;
  std::size_t stride_ = 0;                    ///< base words per row
};

} // namespace stps::sim
