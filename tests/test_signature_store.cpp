#include "sim/signature_store.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

namespace {

using namespace stps;
using sim::signature_store;

TEST(SignatureStore, ResetZeroInitializes)
{
  signature_store sig(5u, 3u);
  EXPECT_EQ(sig.size(), 5u);
  EXPECT_EQ(sig.num_words(), 3u);
  for (std::size_t n = 0; n < sig.size(); ++n) {
    for (std::size_t w = 0; w < sig.num_words(); ++w) {
      EXPECT_EQ(sig.word(n, w), 0u);
    }
  }
}

TEST(SignatureStore, RowSpansAliasTheStore)
{
  signature_store sig(4u, 2u);
  auto row = sig.row(2u);
  ASSERT_EQ(row.size(), 2u);
  row[1] = 0xdeadu;
  EXPECT_EQ(sig.word(2u, 1u), 0xdeadu);
  // Neighboring rows are unaffected.
  EXPECT_EQ(sig.word(1u, 1u), 0u);
  EXPECT_EQ(sig.word(3u, 1u), 0u);
  // The const view sees the same data.
  EXPECT_EQ(sig[2u][1u], 0xdeadu);
}

TEST(SignatureStore, AssignAndFillRow)
{
  signature_store sig(3u, 2u);
  const std::vector<uint64_t> values{0x1u, 0x2u};
  sig.assign_row(1u, values);
  EXPECT_EQ(sig[1u], values);
  sig.fill_row(2u, ~uint64_t{0});
  EXPECT_EQ(sig.word(2u, 0u), ~uint64_t{0});
  EXPECT_EQ(sig.word(2u, 1u), ~uint64_t{0});
  EXPECT_THROW(sig.assign_row(0u, std::vector<uint64_t>{1u}),
               std::invalid_argument);
}

TEST(SignatureStore, AppendWordGrowsEveryRowZeroed)
{
  signature_store sig(6u, 1u);
  for (std::size_t n = 0; n < sig.size(); ++n) {
    sig.word(n, 0u) = n + 1u;
  }
  // Force several grows past the initial stride.
  for (std::size_t extra = 0; extra < 10u; ++extra) {
    sig.append_word();
    EXPECT_EQ(sig.num_words(), extra + 2u);
    for (std::size_t n = 0; n < sig.size(); ++n) {
      EXPECT_EQ(sig.word(n, 0u), n + 1u) << "row survived grow " << extra;
      EXPECT_EQ(sig.word(n, extra + 1u), 0u) << "fresh word zeroed";
    }
  }
}

TEST(SignatureStore, TailMaskContract)
{
  EXPECT_EQ(sim::tail_mask(64u), ~uint64_t{0});
  EXPECT_EQ(sim::tail_mask(128u), ~uint64_t{0});
  EXPECT_EQ(sim::tail_mask(1u), 0x1u);
  EXPECT_EQ(sim::tail_mask(65u), 0x1u);
  EXPECT_EQ(sim::tail_mask(70u), 0x3fu);
}

TEST(SignatureStore, MaskTailEnforcesCanonicalTail)
{
  signature_store sig(3u, 2u);
  for (std::size_t n = 0; n < sig.size(); ++n) {
    sig.fill_row(n, ~uint64_t{0});
  }
  sig.mask_tail(70u); // 6 valid bits in the last word
  for (std::size_t n = 0; n < sig.size(); ++n) {
    EXPECT_EQ(sig.word(n, 0u), ~uint64_t{0});
    EXPECT_EQ(sig.word(n, 1u), 0x3fu);
  }
  // Word-aligned pattern counts leave the last word untouched.
  signature_store full(1u, 1u);
  full.fill_row(0u, ~uint64_t{0});
  full.mask_tail(64u);
  EXPECT_EQ(full.word(0u, 0u), ~uint64_t{0});
}

TEST(SignatureStore, TailWordsAreWordMajorAndMaskable)
{
  signature_store sig(4u, 2u);
  EXPECT_EQ(sig.base_words(), 2u);
  for (std::size_t n = 0; n < sig.size(); ++n) {
    sig.word(n, 1u) = 0x100u + n;
  }
  sig.append_word(); // word 2 lives in a word-major tail block
  EXPECT_EQ(sig.num_words(), 3u);
  EXPECT_EQ(sig.base_words(), 2u);
  for (std::size_t n = 0; n < sig.size(); ++n) {
    EXPECT_EQ(sig.word(n, 2u), 0u);
    sig.word(n, 2u) = ~uint64_t{0};
  }
  // The contiguous tail view aliases the same words.
  const auto block = sig.tail_word(2u);
  ASSERT_EQ(block.size(), sig.size());
  EXPECT_EQ(block[3], ~uint64_t{0});
  // mask_tail lands on the tail block when it holds the last word.
  sig.mask_tail(130u); // 2 valid bits in word 2
  for (std::size_t n = 0; n < sig.size(); ++n) {
    EXPECT_EQ(sig.word(n, 2u), 0x3u);
    EXPECT_EQ(sig.word(n, 1u), 0x100u + n) << "base words untouched";
  }
  // Row views dispatch across the base/tail boundary.
  EXPECT_EQ(sig[1u], std::vector<uint64_t>({0u, 0x101u, 0x3u}));
}

TEST(SignatureStore, RowViewComparisons)
{
  signature_store a(2u, 2u);
  signature_store b(2u, 2u);
  a.word(0u, 0u) = 7u;
  b.word(1u, 0u) = 7u;
  EXPECT_TRUE(a[0u] == b[1u]);
  EXPECT_FALSE(a[0u] == b[0u]);
  EXPECT_TRUE(a[0u] == std::vector<uint64_t>({7u, 0u}));
}

TEST(SignatureStore, TrimFreesAbsorbedWordsAndCounts)
{
  signature_store sig(8u, 2u); // 2 base words
  sig.append_word();           // words 2, 3: tail blocks
  sig.append_word();
  for (std::size_t n = 0; n < sig.size(); ++n) {
    for (std::size_t w = 0; w < 4u; ++w) {
      sig.word(n, w) = 100u * n + w;
    }
  }
  const std::size_t full_bytes = 8u * 4u * sizeof(uint64_t);
  EXPECT_EQ(sig.live_bytes(), full_bytes);
  EXPECT_EQ(sig.peak_bytes(), full_bytes);
  EXPECT_EQ(sig.live_words(), 4u);
  EXPECT_EQ(sig.words_trimmed(), 0u);
  EXPECT_EQ(sig.first_live_word(), 0u);

  // first_live inside the base: node-major rows cannot drop single
  // words, so nothing is freed yet — but the high-water mark moves.
  sig.trim_words(1u);
  EXPECT_EQ(sig.first_live_word(), 1u);
  EXPECT_EQ(sig.live_words(), 4u);
  EXPECT_EQ(sig.word(3u, 1u), 301u);

  // Reaching the base boundary frees the whole arena; tail word 2 is
  // also below the mark and its block is dropped individually.
  sig.trim_words(3u);
  EXPECT_EQ(sig.first_live_word(), 3u);
  EXPECT_EQ(sig.words_trimmed(), 3u);
  EXPECT_EQ(sig.live_words(), 1u);
  EXPECT_EQ(sig.live_bytes(), 8u * sizeof(uint64_t));
  EXPECT_EQ(sig.peak_bytes(), full_bytes);
  // Trimmed reads are well-defined zeros through the const accessor
  // (the mutable accessor asserts — writing a trimmed word is a bug);
  // live words are intact, and num_words / indices never shift.
  const signature_store& csig = sig;
  EXPECT_EQ(csig.num_words(), 4u);
  EXPECT_EQ(csig.word(5u, 0u), 0u);
  EXPECT_EQ(csig.word(5u, 2u), 0u);
  EXPECT_EQ(csig.word(5u, 3u), 503u);

  // Trimming is monotone: a lower mark is a no-op.
  sig.trim_words(1u);
  EXPECT_EQ(sig.first_live_word(), 3u);
  EXPECT_EQ(sig.word(5u, 3u), 503u);

  // Appending after a trim keeps working (new tail block index 4).
  sig.append_word();
  sig.word(5u, 4u) = 77u;
  EXPECT_EQ(sig.word(5u, 4u), 77u);
  EXPECT_EQ(sig.live_words(), 2u);
}

TEST(SignatureStore, CopyLiveWordsKeepsOnlyTheOpenWord)
{
  // A sweep shard's store: a node-major base of 16 words, the last one
  // open (partial), copied from the open word on.
  const std::size_t nodes = 100u;
  signature_store source(nodes, 16u);
  for (std::size_t n = 0; n < nodes; ++n) {
    for (std::size_t w = 0; w < 16u; ++w) {
      source.word(n, w) = 0x9e3779b97f4a7c15ull * (n + 1u) + w;
    }
  }
  const signature_store copy = source.copy_live_words(15u);
  EXPECT_EQ(copy.size(), nodes);
  EXPECT_EQ(copy.num_words(), 16u);
  EXPECT_EQ(copy.first_live_word(), 15u);
  EXPECT_EQ(copy.words_trimmed(), 15u);
  EXPECT_EQ(copy.live_words(), 1u);
  for (std::size_t n = 0; n < nodes; ++n) {
    for (std::size_t w = 0; w < 15u; ++w) {
      ASSERT_EQ(copy.word(n, w), 0u) << "node " << n << " word " << w;
    }
    ASSERT_EQ(copy.word(n, 15u), source.word(n, 15u)) << "node " << n;
  }
  // Only the open word was ever backed, as a word-major tail block.
  const std::size_t one_word = nodes * sizeof(uint64_t);
  EXPECT_EQ(copy.peak_bytes(), one_word);
  EXPECT_EQ(copy.live_bytes(), one_word);
  std::size_t stride = 0;
  EXPECT_EQ(copy.word_block(3u, &stride), nullptr);
  ASSERT_NE(copy.word_block(15u, &stride), nullptr);
  EXPECT_EQ(stride, 1u);

  // The copy keeps growing like any sweep store.
  signature_store grown = copy;
  grown.append_word();
  grown.word(7u, 16u) = 42u;
  EXPECT_EQ(grown.word(7u, 16u), 42u);
  EXPECT_EQ(grown.word(7u, 15u), source.word(7u, 15u));

  // With every word filled and absorbed nothing is copied; a mark below
  // the source's own trim mark is raised to it.
  EXPECT_EQ(source.copy_live_words(16u).live_words(), 0u);
  EXPECT_EQ(source.copy_live_words(99u).num_words(), 16u);
  signature_store trimmed = source;
  trimmed.append_word();
  trimmed.word(2u, 16u) = 5u;
  trimmed.trim_words(16u);
  const signature_store from_trimmed = trimmed.copy_live_words(0u);
  EXPECT_EQ(from_trimmed.first_live_word(), 16u);
  EXPECT_EQ(from_trimmed.live_words(), 1u);
  EXPECT_EQ(from_trimmed.word(2u, 16u), 5u);
}

/// Property: under random append/write/trim interleavings, every live
/// word of the trimmed store matches a never-trimmed reference store fed
/// the identical operations, and the counters stay consistent.
TEST(SignatureStore, TrimInterleavingsMatchNeverTrimmedReference)
{
  for (uint64_t seed = 0; seed < 20u; ++seed) {
    std::mt19937_64 rng{0x7123u + seed};
    const std::size_t nodes = 1u + rng() % 24u;
    const std::size_t base = rng() % 5u; // 0 = fully word-major store
    signature_store trimmed(nodes, base);
    signature_store reference(nodes, base);

    for (std::size_t step = 0; step < 120u; ++step) {
      const uint64_t action = rng() % 4u;
      if (action == 0u) {
        trimmed.append_word();
        reference.append_word();
      } else if (action <= 2u &&
                 trimmed.num_words() > trimmed.first_live_word()) {
        // Write into a random *live* word of both stores.
        const std::size_t lo = trimmed.first_live_word();
        const std::size_t w = lo + rng() % (trimmed.num_words() - lo);
        const std::size_t n = rng() % nodes;
        const uint64_t value = rng();
        trimmed.word(n, w) = value;
        reference.word(n, w) = value;
      } else {
        trimmed.trim_words(rng() % (trimmed.num_words() + 1u));
      }
      ASSERT_EQ(trimmed.num_words(), reference.num_words());
      ASSERT_EQ(trimmed.live_words() + trimmed.words_trimmed(),
                trimmed.num_words());
      ASSERT_LE(trimmed.live_bytes(), reference.live_bytes());
      for (std::size_t n = 0; n < nodes; ++n) {
        for (std::size_t w = trimmed.first_live_word();
             w < trimmed.num_words(); ++w) {
          ASSERT_EQ(trimmed.word(n, w), reference.word(n, w))
              << "seed " << seed << " node " << n << " word " << w;
        }
      }
    }
    EXPECT_EQ(reference.words_trimmed(), 0u);
    EXPECT_EQ(reference.peak_bytes(), reference.live_bytes());
  }
}

} // namespace
