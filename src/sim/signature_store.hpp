/// \file signature_store.hpp
/// \brief Flat node-major base arena + word-major tail blocks for
/// simulation signatures.
///
/// A *signature* is the ordered set of values a node produces under a
/// pattern set, one word per 64 patterns.  The words dimensioned at
/// `reset` time (the *base*) live in one contiguous node-major buffer at
/// a fixed stride, so a whole simulation run touches memory linearly
/// instead of chasing one heap allocation per node.  Words appended
/// later by `append_word` (counter-example words) live in *word-major
/// tail blocks*: one flat `num_nodes`-sized block per appended word.
/// Appending therefore never repacks the node-major arena, and the hot
/// counter-example accesses — every node's bits of the one open word —
/// are contiguous.
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
///
/// **Trimming.**  Sweeping appends one word per 64 counter-examples and,
/// once the equivalence classes have been refined with a word, never
/// reads it again — its information is *absorbed* by the partition.
/// `trim_words(first_live)` frees the storage of absorbed words: tail
/// blocks are dropped individually (one `swap`, the word-major layout
/// makes this O(1) per word), the node-major base arena is freed as a
/// whole once every base word is absorbed.  Word indexing stays
/// *absolute* — `num_words()` never shrinks, appended words keep their
/// indices — so refinement code is oblivious to trimming.  Reading a
/// trimmed word yields 0 through the const accessors; writing one is a
/// bug (asserted in debug builds).  `live_words`, `words_trimmed`,
/// `live_bytes`, and `peak_bytes` expose the memory-budget counters.
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
    if (w < stride_) {
      return base_freed_ ? 0u : data_[n * stride_ + w];
    }
    const std::vector<uint64_t>& t = tail_[w - stride_];
    return t.empty() ? 0u : t[n];
  }
  uint64_t& word(std::size_t n, std::size_t w) noexcept
  {
    assert(w >= first_live_ && "word(): writing a trimmed word");
    return w < stride_ ? data_[n * stride_ + w] : tail_[w - stride_][n];
  }

  /// Strided address of word \p w across all nodes, for vectorized
  /// whole-column access: returns a pointer p and sets \p stride such
  /// that node n's word is `p[n * stride]` (base words: the node-major
  /// arena at the row stride; tail words: the word-major block at
  /// stride 1), or nullptr when the word's storage is absent (trimmed,
  /// or born trimmed) and every read yields 0 — exactly mirroring the
  /// `word()` accessor.
  const uint64_t* word_block(std::size_t w, std::size_t* stride)
      const noexcept
  {
    if (w < stride_) {
      if (base_freed_) {
        return nullptr;
      }
      *stride = stride_;
      return data_.data() + w;
    }
    const std::vector<uint64_t>& t = tail_[w - stride_];
    if (t.empty()) {
      return nullptr;
    }
    *stride = 1u;
    return t.data();
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

  /// Appends one zeroed word to every row (for counter-example patterns
  /// spilling into a fresh word).  The word is a word-major tail block:
  /// one O(size) allocation, never a repack of the node-major base.
  void append_word();

  /// Appends one word that is *born trimmed*: it occupies an absolute
  /// index (keeping later words aligned with the pattern set) but never
  /// allocates backing storage — reads yield 0, writes are a bug.  Used
  /// by whole-AIG counter-example resimulation, which recomputes only
  /// the open word and never reads the words before it.  Callable only
  /// while the store has no live words yet.
  void append_trimmed_word();

  /// Re-establishes the canonical-tail invariant: bits at or beyond
  /// \p num_patterns in the final word are cleared on every row.
  void mask_tail(uint64_t num_patterns);

  /// \name Memory budget: trimming absorbed words
  /// \{
  /// Frees the storage of every word with index < \p first_live (clamped
  /// to `num_words()`).  Tail blocks are freed individually; the base
  /// arena is freed as a whole once \p first_live reaches `base_words()`
  /// (node-major rows cannot drop single words cheaply).  Indices are
  /// absolute and monotone: trimming never renumbers words, and a lower
  /// \p first_live than a previous call is a no-op.
  void trim_words(std::size_t first_live);

  /// Copy holding only the words from \p first_live on (raised to this
  /// store's own trim mark): earlier words are born trimmed, every later
  /// word is copied into a word-major tail block.  Reads agree with this
  /// store at every index ≥ \p first_live and yield 0 below it; the copy
  /// starts with `peak_bytes()` = its live words only.  This is how a
  /// sweep shard takes over the open word without the base arena.
  signature_store copy_live_words(std::size_t first_live) const;

  /// First word whose storage is guaranteed live (0 when never trimmed).
  std::size_t first_live_word() const noexcept { return first_live_; }
  /// Words whose backing storage has been freed.
  std::size_t words_trimmed() const noexcept
  {
    return (base_freed_ ? stride_ : 0u) + tail_freed_;
  }
  /// Words still backed by storage.
  std::size_t live_words() const noexcept
  {
    return num_words_ - words_trimmed();
  }
  /// Current footprint of the word data in bytes.
  std::size_t live_bytes() const noexcept
  {
    return ((base_freed_ ? 0u : data_.size()) +
            (tail_.size() - tail_freed_) * num_nodes_) *
           sizeof(uint64_t);
  }
  /// Largest `live_bytes()` ever reached (tracked across reset/append).
  std::size_t peak_bytes() const noexcept { return peak_bytes_; }
  /// \}

private:
  std::vector<uint64_t> data_;                ///< node-major base arena
  std::vector<std::vector<uint64_t>> tail_;   ///< word-major appended words
  std::size_t num_nodes_ = 0;
  std::size_t num_words_ = 0;
  std::size_t stride_ = 0;                    ///< base words per row
  std::size_t first_live_ = 0;                ///< trim high-water mark
  std::size_t tail_freed_ = 0;                ///< leading tail blocks freed
  bool base_freed_ = false;
  std::size_t peak_bytes_ = 0;
};

} // namespace stps::sim
