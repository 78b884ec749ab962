#include "core/stp_eval.hpp"
#include "tt/operations.hpp"

#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <vector>

namespace {

using namespace stps;

class StpEvalSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(StpEvalSweep, WordPassMatchesPerBitLookup)
{
  const uint32_t k = GetParam();
  std::mt19937_64 rng{1000u + k};
  const auto table = tt::make_random(k, 5u + k);
  core::stp_scratch scratch;
  scratch.reserve(k);

  std::vector<uint64_t> inputs(k);
  for (uint32_t trial = 0; trial < 8u; ++trial) {
    for (auto& w : inputs) {
      w = rng();
    }
    const uint64_t out = core::stp_evaluate_word(table, inputs, scratch);
    // Reference: per-bit index assembly (what the baseline simulator does).
    for (uint32_t bit = 0; bit < 64u; ++bit) {
      uint64_t index = 0;
      for (uint32_t i = 0; i < k; ++i) {
        index |= ((inputs[i] >> bit) & 1u) << i;
      }
      ASSERT_EQ((out >> bit) & 1u, table.bit(index) ? 1u : 0u)
          << "k=" << k << " trial=" << trial << " bit=" << bit;
    }
  }
}

TEST_P(StpEvalSweep, SinglePatternMatchesTable)
{
  const uint32_t k = GetParam();
  if (k > 12u) {
    return; // single-pattern path is exercised on small tables
  }
  const auto table = tt::make_random(k, 77u + k);
  std::vector<bool> vb(k);
  bool inputs[16];
  for (uint64_t x = 0; x < (uint64_t{1} << k); ++x) {
    for (uint32_t i = 0; i < k; ++i) {
      inputs[i] = (x >> i) & 1u;
    }
    EXPECT_EQ(core::stp_evaluate_single(
                  table, std::span<const bool>{inputs, k}),
              table.bit(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, StpEvalSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 10u));

/// (arity, word count): word counts below one 8-word block, of exactly
/// one block, and of full blocks plus a scalar tail.
class StpRowsSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, std::size_t>>
{
};

TEST_P(StpRowsSweep, BlockPassMatchesPerBitLookupAndWordForm)
{
  const auto [k, num_words] = GetParam();
  std::mt19937_64 rng{2000u + 31u * k + num_words};
  const auto table = tt::make_random(k, 9u + k);
  core::stp_scratch scratch;
  scratch.reserve(k);

  std::vector<std::vector<uint64_t>> rows(k,
                                          std::vector<uint64_t>(num_words));
  std::vector<const uint64_t*> inputs(k);
  for (uint32_t i = 0; i < k; ++i) {
    for (auto& w : rows[i]) {
      w = rng();
    }
    inputs[i] = rows[i].data();
  }
  std::vector<uint64_t> out(num_words, 0x5555u);
  core::stp_evaluate_rows(table, inputs, out.data(), num_words, scratch);

  std::vector<uint64_t> column(k);
  for (std::size_t w = 0; w < num_words; ++w) {
    for (uint32_t i = 0; i < k; ++i) {
      column[i] = rows[i][w];
    }
    ASSERT_EQ(out[w], core::stp_evaluate_word(table, column, scratch))
        << "k=" << k << " words=" << num_words << " w=" << w;
    for (uint32_t bit = 0; bit < 64u; ++bit) {
      uint64_t index = 0;
      for (uint32_t i = 0; i < k; ++i) {
        index |= ((column[i] >> bit) & 1u) << i;
      }
      ASSERT_EQ((out[w] >> bit) & 1u, table.bit(index) ? 1u : 0u)
          << "k=" << k << " words=" << num_words << " w=" << w
          << " bit=" << bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AritiesAndWordCounts, StpRowsSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                         10u),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{8}, std::size_t{9},
                                         std::size_t{17})));

TEST(StpEval, ConstantTables)
{
  core::stp_scratch scratch;
  scratch.reserve(0u);
  EXPECT_EQ(core::stp_evaluate_word(tt::make_const0(0u), {}, scratch), 0u);
  EXPECT_EQ(core::stp_evaluate_word(tt::make_const1(0u), {}, scratch),
            ~uint64_t{0});
}

TEST(StpEval, ArityMismatchThrows)
{
  core::stp_scratch scratch;
  scratch.reserve(3u);
  const uint64_t one_input[1] = {0xffu};
  EXPECT_THROW(core::stp_evaluate_word(tt::make_maj3(), one_input, scratch),
               std::invalid_argument);
}

TEST(StpEval, RowsRejectArityMismatchAndSmallScratch)
{
  core::stp_scratch scratch;
  scratch.reserve(2u);
  const uint64_t word = 0xffu;
  const uint64_t* one_row[1] = {&word};
  const uint64_t* three_rows[3] = {&word, &word, &word};
  uint64_t out = 0;
  EXPECT_THROW(
      core::stp_evaluate_rows(tt::make_maj3(), one_row, &out, 1u, scratch),
      std::invalid_argument);
  EXPECT_THROW(
      core::stp_evaluate_rows(tt::make_maj3(), three_rows, &out, 1u, scratch),
      std::invalid_argument);
}

TEST(StpEval, ScratchGrowsMonotonically)
{
  core::stp_scratch scratch;
  scratch.reserve(4u);
  const std::size_t after4 = scratch.size();
  scratch.reserve(2u);
  EXPECT_EQ(scratch.size(), after4); // never shrinks
  scratch.reserve(8u);
  EXPECT_GT(scratch.size(), after4);
}

} // namespace
