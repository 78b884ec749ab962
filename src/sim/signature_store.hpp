/// \file signature_store.hpp
/// \brief Flat node-major arena for simulation signatures.
///
/// A *signature* is the ordered set of values a node produces under a
/// pattern set, one word per 64 patterns.  Every node's words live in one
/// contiguous node-major buffer at a fixed stride, so a whole simulation
/// run touches memory linearly instead of chasing one heap allocation
/// per node: word `w` of node `n` is `data_[n * num_words() + w]`.
/// Patterns appended after a simulation live in `sim::open_word`, never
/// in the store.
///
/// The arena is zero when a store is constructed or `reset`, at no cost
/// of a `memset`: an arena of at least 2 MiB is a fresh anonymous
/// mapping, aligned to 2 MiB and advised for transparent huge pages, and
/// a smaller one comes from `calloc`; both are zero already.  Where the
/// kernel grants transparent huge pages, a large store takes one fault
/// per 2 MiB instead of 512 faults on 4 KiB pages; either way it never
/// passes through the malloc heap.  Callers rely on zero rows: row 0
/// (constant zero) of both AIG simulators is never written, and
/// `simulate_klut_bitwise` ORs each pattern's bit into its gate rows.
///
/// Simulators guarantee the *canonical tail* invariant — bits at
/// positions at or beyond `num_patterns` in the final word are zero, so
/// whole-word signature comparison is meaningful — by calling
/// `mask_tail`, the single place the invariant is enforced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
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
  /// and against plain word vectors, and indexable per word.
  class row_view
  {
  public:
    row_view() = default;
    explicit row_view(std::span<const uint64_t> words) noexcept
        : words_{words}
    {
    }

    std::size_t size() const noexcept { return words_.size(); }
    bool empty() const noexcept { return words_.empty(); }
    uint64_t operator[](std::size_t w) const noexcept { return words_[w]; }

    friend bool operator==(row_view a, row_view b) noexcept
    {
      return std::ranges::equal(a.words_, b.words_);
    }
    friend bool operator==(row_view a, const std::vector<uint64_t>& b)
    {
      return std::ranges::equal(a.words_, b);
    }

  private:
    std::span<const uint64_t> words_;
  };

  signature_store() = default;
  /// Zero-initialized store of \p num_nodes rows × \p num_words words.
  /// The words come zero from the allocator (a huge-page-advised
  /// anonymous mapping from 2 MiB up, `calloc` below), so nothing is
  /// written here; callers may rely on rows they never set reading zero.
  signature_store(std::size_t num_nodes, std::size_t num_words)
  {
    reset(num_nodes, num_words);
  }

  /// Copies are deep; a moved-from store is empty (0 × 0).
  signature_store(const signature_store&) = default;
  signature_store& operator=(const signature_store&) = default;
  signature_store(signature_store&& other) noexcept
      : data_{std::move(other.data_)},
        num_nodes_{std::exchange(other.num_nodes_, 0u)},
        num_words_{std::exchange(other.num_words_, 0u)}
  {
  }
  signature_store& operator=(signature_store&& other) noexcept
  {
    data_ = std::move(other.data_);
    num_nodes_ = std::exchange(other.num_nodes_, 0u);
    num_words_ = std::exchange(other.num_words_, 0u);
    return *this;
  }

  /// Re-dimensions to \p num_nodes × \p num_words, all words zero (a
  /// fresh arena, as in the constructor).
  void reset(std::size_t num_nodes, std::size_t num_words);

  std::size_t size() const noexcept { return num_nodes_; }
  std::size_t num_words() const noexcept { return num_words_; }

  row_view operator[](std::size_t n) const noexcept { return row_view{row(n)}; }
  /// Contiguous node-major row.
  std::span<uint64_t> row(std::size_t n) noexcept
  {
    return {data_.data() + n * num_words_, num_words_};
  }
  std::span<const uint64_t> row(std::size_t n) const noexcept
  {
    return {data_.data() + n * num_words_, num_words_};
  }

  uint64_t word(std::size_t n, std::size_t w) const noexcept
  {
    return data_[n * num_words_ + w];
  }
  uint64_t& word(std::size_t n, std::size_t w) noexcept
  {
    return data_[n * num_words_ + w];
  }

  /// Copies \p values into row \p n (must have exactly num_words words).
  void assign_row(std::size_t n, std::span<const uint64_t> values);
  /// Sets every word of row \p n to \p value.
  void fill_row(std::size_t n, uint64_t value);

  /// Re-establishes the canonical-tail invariant: bits at or beyond
  /// \p num_patterns in the final word are cleared on every row.
  void mask_tail(uint64_t num_patterns);

private:
  /// Owning zero-initialised word array: an anonymous mapping rounded up
  /// to whole 2 MiB huge pages from 2 MiB up (`munmap`ed), `calloc` below.
  class word_buffer
  {
  public:
    word_buffer() = default;
    explicit word_buffer(std::size_t size);
    word_buffer(const word_buffer& other);
    word_buffer(word_buffer&& other) noexcept
        : words_{std::exchange(other.words_, nullptr)},
          size_{std::exchange(other.size_, 0u)},
          mapped_bytes_{std::exchange(other.mapped_bytes_, 0u)}
    {
    }
    word_buffer& operator=(word_buffer other) noexcept
    {
      std::swap(words_, other.words_);
      std::swap(size_, other.size_);
      std::swap(mapped_bytes_, other.mapped_bytes_);
      return *this;
    }
    ~word_buffer();

    uint64_t* data() noexcept { return words_; }
    const uint64_t* data() const noexcept { return words_; }
    uint64_t& operator[](std::size_t i) noexcept { return words_[i]; }
    uint64_t operator[](std::size_t i) const noexcept { return words_[i]; }

  private:
    uint64_t* words_ = nullptr;
    std::size_t size_ = 0;         ///< words
    std::size_t mapped_bytes_ = 0; ///< mapping length; 0 = from calloc
  };

  word_buffer data_; ///< node-major arena
  std::size_t num_nodes_ = 0;
  std::size_t num_words_ = 0;
};

} // namespace stps::sim
