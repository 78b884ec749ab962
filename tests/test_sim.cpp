#include "gen/arithmetic.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "network/convert.hpp"
#include "sim/bitwise_sim.hpp"
#include "sim/patterns.hpp"
#include "sweep/fraig.hpp"

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace stps;

TEST(Patterns, RandomShapeAndTail)
{
  const auto p = sim::pattern_set::random(5u, 100u, 7u);
  EXPECT_EQ(p.num_inputs(), 5u);
  EXPECT_EQ(p.num_patterns(), 100u);
  EXPECT_EQ(p.num_words(), 2u);
  // Tail bits beyond pattern 99 must be zero.
  for (uint32_t i = 0; i < 5u; ++i) {
    EXPECT_EQ(p.input_bits(i)[1] >> 36u, 0u);
  }
}

TEST(Patterns, ExhaustiveEnumeratesAllAssignments)
{
  const auto p = sim::pattern_set::exhaustive(4u);
  EXPECT_EQ(p.num_patterns(), 16u);
  for (uint64_t pat = 0; pat < 16u; ++pat) {
    for (uint32_t input = 0; input < 4u; ++input) {
      EXPECT_EQ(p.bit(input, pat), ((pat >> input) & 1u) != 0u);
    }
  }
}

TEST(Patterns, AddPatternAppends)
{
  sim::pattern_set p{3u};
  p.add_pattern({true, false, true});
  p.add_pattern({false, true, false});
  EXPECT_EQ(p.num_patterns(), 2u);
  EXPECT_TRUE(p.bit(0, 0));
  EXPECT_FALSE(p.bit(1, 0));
  EXPECT_TRUE(p.bit(2, 0));
  EXPECT_FALSE(p.bit(0, 1));
  EXPECT_TRUE(p.bit(1, 1));
}

TEST(Patterns, AppendsGrowTheArenaKeepingEarlierWords)
{
  // 100 random patterns (2 words); 64 appends grow the input-major
  // arena to a third word.
  auto p = sim::pattern_set::random(3u, 100u, 21u);
  const uint64_t w0 = p.input_word(1u, 0u);
  std::vector<bool> ones(3u, true);
  for (uint32_t i = 0; i < 64u; ++i) {
    p.add_pattern(ones);
  }
  EXPECT_EQ(p.num_patterns(), 164u);
  ASSERT_EQ(p.input_bits(0u).size(), 3u);
  EXPECT_EQ(p.input_word(1u, 0u), w0) << "earlier words kept";
  // Patterns 100..127 fill the rest of word 1, 128..163 start word 2.
  EXPECT_EQ(p.input_word(2u, 1u) >> 36u, (~uint64_t{0}) >> 36u);
  EXPECT_EQ(p.input_word(0u, 2u), (uint64_t{1} << 36u) - 1u);
  EXPECT_TRUE(p.bit(0u, 163u));
}

TEST(Simulate, AdderComputesArithmetic)
{
  const uint32_t width = 16u;
  auto aig = stps::gen::make_adder(width);
  const auto patterns = sim::pattern_set::random(aig.num_pis(), 256u, 11u);
  const auto sig = sim::simulate_aig(aig, patterns);

  const auto po_value = [&](uint32_t po, uint64_t pat) {
    const auto f = aig.po_at(po);
    const bool v = (sig[f.get_node()][pat >> 6u] >> (pat & 63u)) & 1u;
    return v != f.is_complemented();
  };
  for (uint64_t pat = 0; pat < 256u; ++pat) {
    uint64_t a = 0, b = 0;
    for (uint32_t i = 0; i < width; ++i) {
      a |= uint64_t{patterns.bit(i, pat)} << i;
      b |= uint64_t{patterns.bit(width + i, pat)} << i;
    }
    const uint64_t cin = patterns.bit(2u * width, pat);
    const uint64_t sum = a + b + cin;
    for (uint32_t i = 0; i <= width; ++i) {
      EXPECT_EQ(po_value(i, pat), ((sum >> i) & 1u) != 0u)
          << "pattern " << pat << " bit " << i;
    }
  }
}

class SimCrossCheck : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SimCrossCheck, WordParallelMatchesSingleEvaluation)
{
  const auto aig = stps::gen::make_random_logic(
      {12u, 8u, 300u, GetParam(), 25u});
  const auto patterns = sim::pattern_set::random(12u, 64u, GetParam() + 1u);
  const auto sig = sim::simulate_aig(aig, patterns);

  for (uint64_t pat = 0; pat < 8u; ++pat) { // sample patterns
    std::vector<bool> assignment;
    for (uint32_t i = 0; i < 12u; ++i) {
      assignment.push_back(patterns.bit(i, pat));
    }
    std::vector<bool> buf(assignment.begin(), assignment.end());
    bool plain[12];
    for (uint32_t i = 0; i < 12u; ++i) {
      plain[i] = buf[i];
    }
    aig.foreach_gate([&](net::node n) {
      const bool expect = sim::evaluate_aig_node(
          aig, n, std::span<const bool>{plain, 12u});
      const bool got = (sig[n][0] >> pat) & 1u;
      EXPECT_EQ(got, expect) << "node " << n << " pattern " << pat;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimCrossCheck, ::testing::Values(1u, 2u, 3u));

TEST(Simulate, KlutBitwiseMatchesAig)
{
  const auto aig = stps::gen::make_max(12u);
  const auto conv = net::aig_to_klut(aig);
  const auto patterns = sim::pattern_set::random(aig.num_pis(), 320u, 5u);
  const auto sig_aig = sim::simulate_aig(aig, patterns);
  const auto sig_klut = sim::simulate_klut_bitwise(conv.klut, patterns);
  aig.foreach_gate([&](net::node n) {
    const auto m = conv.node_map[n];
    EXPECT_EQ(sig_aig[n], sig_klut[m]) << "node " << n;
  });
}

/// Appends 150 counter-example patterns to \p patterns one at a time —
/// sparse flips like real CEs, every tenth one dense, crossing word
/// boundaries — and after each one checks the column of a
/// `sim::open_word` over \p aig fed the same patterns against
/// `simulate_aig` of \p reference on the final pattern set (bits beyond
/// the patterns seen so far masked off).
void expect_open_word_tracks_simulation(const net::aig_network& aig,
                                        const net::aig_network& reference,
                                        sim::pattern_set patterns,
                                        uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<std::vector<bool>> ces;
  sim::pattern_set final_patterns = patterns;
  for (uint32_t i = 0; i < 150u; ++i) {
    std::bernoulli_distribution flip{i % 10u == 9u ? 0.5 : 0.1};
    std::vector<bool> ce(aig.num_pis());
    for (uint32_t j = 0; j < aig.num_pis(); ++j) {
      ce[j] = flip(rng);
    }
    final_patterns.add_pattern(ce);
    ces.push_back(std::move(ce));
  }
  const auto expected = sim::simulate_aig(reference, final_patterns);

  const sim::resim_plan plan = sim::make_resim_plan(aig);
  sim::open_word open{patterns, plan};
  const auto expect_column = [&] {
    ASSERT_EQ(open.num_patterns(), patterns.num_patterns());
    ASSERT_EQ(open.mask(), sim::tail_mask(patterns.num_patterns()));
    const std::size_t last = patterns.num_words() - 1u;
    for (net::node n = 0; n < aig.size(); ++n) {
      ASSERT_EQ(open.column()[n] & open.mask(),
                expected.word(n, last) & open.mask())
          << "column row " << n << " after " << patterns.num_patterns()
          << " patterns";
    }
  };
  expect_column(); // the initial patterns' last word
  for (const std::vector<bool>& ce : ces) {
    patterns.add_pattern(ce);
    open.add_pattern(ce);
    expect_column();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(Resimulate, OpenWordFromPartialBaseWordMatchesSimulation)
{
  // The first 56 counter-examples fill the initial patterns' partial
  // last word; the rest start fresh words.
  const auto aig = stps::gen::make_random_logic({14u, 10u, 600u, 5u, 25u});
  const auto patterns = sim::pattern_set::random(aig.num_pis(), 200u, 5u);
  expect_open_word_tracks_simulation(aig, aig, patterns, 5u);
}

TEST(Resimulate, OpenWordFromFullBaseWordMatchesSimulation)
{
  // The initial patterns end on a word boundary: the first
  // counter-example already starts a fresh word.
  const auto aig = stps::gen::make_random_logic({14u, 10u, 600u, 23u, 25u});
  const auto patterns = sim::pattern_set::random(aig.num_pis(), 192u, 23u);
  expect_open_word_tracks_simulation(aig, aig, patterns, 23u);
}

TEST(Resimulate, GatesKilledBySubstitutionKeepTheirFunction)
{
  // A fraig sweep kills gates through substitute_node; every node id,
  // dead or alive, must still resimulate to its original function in
  // the sweepers' open-word column.
  const auto original = stps::gen::inject_redundancy(
      stps::gen::make_random_logic({14u, 10u, 600u, 91u, 25u}),
      {8u, 4u, 91u});
  net::aig_network swept = original;
  const auto stats = sweep::fraig_sweep(swept, {256u, 1u, -1});
  ASSERT_GT(stats.merges, 0u) << "fixture kills no gate";
  const auto patterns = sim::pattern_set::random(swept.num_pis(), 200u, 91u);
  expect_open_word_tracks_simulation(swept, original, patterns, 91u);
}

TEST(Simulate, InputCountMismatchThrows)
{
  const auto aig = stps::gen::make_adder(4u);
  const auto patterns = sim::pattern_set::random(3u, 64u, 1u);
  EXPECT_THROW(sim::simulate_aig(aig, patterns), std::invalid_argument);
}

} // namespace
