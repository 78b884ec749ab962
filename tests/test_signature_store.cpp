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
