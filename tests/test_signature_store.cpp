#include "sim/signature_store.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace {

using namespace stps;
using sim::signature_store;

/// 2048 rows × 257 words is 4.02 MiB: the mapped huge-page arena.
constexpr std::size_t big_nodes = 2048u;
constexpr std::size_t big_words = 257u;

bool all_zero(const signature_store& sig)
{
  for (std::size_t n = 0; n < sig.size(); ++n) {
    for (const uint64_t w : sig.row(n)) {
      if (w != 0u) {
        return false;
      }
    }
  }
  return true;
}

void fill_all(signature_store& sig, uint64_t value)
{
  for (std::size_t n = 0; n < sig.size(); ++n) {
    sig.fill_row(n, value);
  }
}

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

/// Rows read zero on both arenas (calloc below 2 MiB, a mapping above),
/// also when the previous store of the same shape was dirtied and freed
/// just before: an allocator that recycles memory without zeroing it
/// hands the old words back.
TEST(SignatureStore, FreshStoresReadZeroAfterDirtyFrees)
{
  ASSERT_GE(big_nodes * big_words * sizeof(uint64_t), std::size_t{4} << 20u);
  for (const auto& [nodes, words] :
       {std::pair{std::size_t{8}, std::size_t{4}},
        std::pair{std::size_t{300}, std::size_t{100}},
        std::pair{big_nodes, big_words}}) {
    for (int round = 0; round < 3; ++round) {
      signature_store sig(nodes, words);
      ASSERT_EQ(sig.size(), nodes);
      ASSERT_EQ(sig.num_words(), words);
      EXPECT_TRUE(all_zero(sig)) << nodes << " x " << words << ", round "
                                 << round;
      fill_all(sig, ~uint64_t{0});
    }
  }
}

TEST(SignatureStore, MappedCopyIsDeepAndIndependent)
{
  signature_store a(big_nodes, big_words);
  a.word(0u, 0u) = 1u;
  a.word(big_nodes - 1u, big_words - 1u) = 2u;
  signature_store b = a;
  ASSERT_EQ(b.size(), big_nodes);
  ASSERT_EQ(b.num_words(), big_words);
  EXPECT_EQ(b.word(0u, 0u), 1u);
  EXPECT_EQ(b.word(big_nodes - 1u, big_words - 1u), 2u);
  EXPECT_NE(b.row(0u).data(), a.row(0u).data());
  b.word(7u, 3u) = 9u;
  a.word(8u, 4u) = 5u;
  EXPECT_EQ(a.word(7u, 3u), 0u);
  EXPECT_EQ(b.word(8u, 4u), 0u);

  // Copy-assignment over a small store takes the mapped shape too.
  signature_store c(2u, 2u);
  c = a;
  EXPECT_EQ(c.size(), big_nodes);
  EXPECT_EQ(c.word(8u, 4u), 5u);
  a.word(8u, 4u) = 0u;
  EXPECT_EQ(c.word(8u, 4u), 5u);
}

TEST(SignatureStore, MovedFromStoreIsEmpty)
{
  signature_store a(big_nodes, big_words);
  a.word(3u, 3u) = 11u;
  const uint64_t* const words = a.row(0u).data();
  signature_store b = std::move(a);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.num_words(), 0u);
  EXPECT_EQ(b.row(0u).data(), words); // the arena moved, not copied
  EXPECT_EQ(b.word(3u, 3u), 11u);

  signature_store c(4u, 4u);
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.num_words(), 0u);
  EXPECT_EQ(c.size(), big_nodes);
  EXPECT_EQ(c.word(3u, 3u), 11u);

  // A moved-from store is reusable.
  a.reset(2u, 3u);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(all_zero(a));
}

TEST(SignatureStore, ResetMovesBetweenMappedAndSmallArenas)
{
  signature_store sig(big_nodes, big_words);
  fill_all(sig, ~uint64_t{0});
  sig.reset(3u, 2u);
  EXPECT_EQ(sig.size(), 3u);
  EXPECT_EQ(sig.num_words(), 2u);
  EXPECT_TRUE(all_zero(sig));
  fill_all(sig, ~uint64_t{0});
  sig.reset(big_nodes, big_words);
  EXPECT_EQ(sig.size(), big_nodes);
  EXPECT_EQ(sig.num_words(), big_words);
  EXPECT_TRUE(all_zero(sig));
  sig.reset(0u, 0u);
  EXPECT_EQ(sig.size(), 0u);
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
