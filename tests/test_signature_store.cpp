#include "sim/signature_store.hpp"

#include <gtest/gtest.h>

#include <vector>

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

} // namespace
