/// \file test_properties.cpp
/// \brief Cross-module property tests: algebraic laws of the STP, fuzzed
/// substitution soundness, collapse/roundtrip invariants over seeds.
#include "cut/tree_cuts.hpp"
#include "gen/random_logic.hpp"
#include "io/aiger.hpp"
#include "network/convert.hpp"
#include "sim/bitwise_sim.hpp"
#include "stp/matrix.hpp"
#include "sweep/cec.hpp"
#include "sweep/equiv_classes.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

namespace {

using namespace stps;
using stp::matrix;

matrix random_matrix(std::size_t rows, std::size_t cols,
                     std::mt19937_64& rng)
{
  matrix m{rows, cols};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.set(r, c, rng() & 1u);
    }
  }
  return m;
}

class StpLaws : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(StpLaws, StpIsAssociative)
{
  std::mt19937_64 rng{GetParam()};
  // Dimensions drawn from small divisor-friendly values.
  const std::size_t dims[] = {1, 2, 3, 4, 6};
  const auto d = [&]() { return dims[rng() % 5u]; };
  const matrix a = random_matrix(d(), d(), rng);
  const matrix b = random_matrix(d(), d(), rng);
  const matrix c = random_matrix(d(), d(), rng);
  const matrix left = semi_tensor_product(semi_tensor_product(a, b), c);
  const matrix right = semi_tensor_product(a, semi_tensor_product(b, c));
  EXPECT_EQ(left, right);
}

TEST_P(StpLaws, KroneckerMixedProduct)
{
  std::mt19937_64 rng{GetParam() + 1000u};
  // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD) with compatible dimensions.
  const std::size_t m = 1u + rng() % 3u;
  const std::size_t n = 1u + rng() % 3u;
  const std::size_t p = 1u + rng() % 3u;
  const std::size_t q = 1u + rng() % 3u;
  const std::size_t r = 1u + rng() % 3u;
  const std::size_t s = 1u + rng() % 3u;
  const matrix a = random_matrix(m, n, rng);
  const matrix b = random_matrix(p, q, rng);
  const matrix c = random_matrix(n, r, rng);
  const matrix d = random_matrix(q, s, rng);
  EXPECT_EQ(multiply(kronecker(a, b), kronecker(c, d)),
            kronecker(multiply(a, c), multiply(b, d)));
}

TEST_P(StpLaws, StpGeneralizesMatrixProduct)
{
  std::mt19937_64 rng{GetParam() + 2000u};
  const std::size_t m = 1u + rng() % 4u;
  const std::size_t n = 1u + rng() % 4u;
  const std::size_t p = 1u + rng() % 4u;
  const matrix a = random_matrix(m, n, rng);
  const matrix b = random_matrix(n, p, rng);
  EXPECT_EQ(semi_tensor_product(a, b), multiply(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StpLaws, ::testing::Range(uint64_t{0},
                                                          uint64_t{12}));

class SubstitutionFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SubstitutionFuzz, RandomEquivalentMergesPreservePos)
{
  // Find truly equivalent node pairs by exhaustive simulation, merge the
  // later onto the earlier, and check PO functions after every merge.
  auto aig = gen::make_random_logic({8u, 6u, 150u, GetParam(), 30u});
  const auto patterns = sim::pattern_set::exhaustive(8u);
  const auto reference = sim::simulate_aig(aig, patterns);
  std::vector<uint64_t> ref_pos;
  aig.foreach_po([&](net::signal f, uint32_t) {
    uint64_t v = reference[f.get_node()][0];
    ref_pos.push_back(f.is_complemented() ? ~v & sim::tail_mask(256u) : v);
  });

  std::mt19937_64 rng{GetParam() + 7u};
  for (int round = 0; round < 10; ++round) {
    // Fresh signatures for the current network.
    const auto sig = sim::simulate_aig(aig, patterns);
    // Collect live equal-signature pairs.
    std::vector<std::pair<net::node, net::node>> pairs;
    std::vector<net::node> gates;
    aig.foreach_gate([&](net::node n) { gates.push_back(n); });
    for (std::size_t i = 0; i < gates.size() && pairs.size() < 20u; ++i) {
      for (std::size_t j = i + 1u; j < gates.size(); ++j) {
        if (sig[gates[i]] == sig[gates[j]]) {
          pairs.emplace_back(gates[i], gates[j]);
          break;
        }
      }
    }
    if (pairs.empty()) {
      break;
    }
    const auto [keep, kill] = pairs[rng() % pairs.size()];
    if (aig.is_dead(kill) || aig.is_dead(keep)) {
      continue;
    }
    aig.substitute_node(kill, net::signal{keep, false});

    // All POs must still compute their original functions.
    const auto now = sim::simulate_aig(aig, patterns);
    uint32_t index = 0;
    aig.foreach_po([&](net::signal f, uint32_t) {
      uint64_t v = now[f.get_node()][0];
      if (f.is_complemented()) {
        v = ~v & sim::tail_mask(256u);
      }
      EXPECT_EQ(v, ref_pos[index]) << "PO " << index << " round " << round;
      ++index;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubstitutionFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

class CollapseFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CollapseFuzz, CollapsePreservesAllRootFunctions)
{
  const uint64_t seed = GetParam();
  const auto aig = gen::make_random_logic(
      {9u, 5u, 120u + 30u * static_cast<uint32_t>(seed % 4u), seed, 25u});
  const auto conv = net::aig_to_klut(aig);
  const auto patterns = sim::pattern_set::exhaustive(9u);
  const auto before = sim::simulate_klut_bitwise(conv.klut, patterns);

  for (const uint32_t limit : {2u, 4u, 6u, 10u}) {
    const auto collapsed = cut::collapse_to_cuts(conv.klut, {}, limit);
    const auto after = sim::simulate_klut_bitwise(collapsed.net, patterns);
    for (const auto root : collapsed.roots) {
      EXPECT_EQ(before[root], after[collapsed.node_map[root]])
          << "limit " << limit << " root " << root;
    }
    // Collapsing shrinks or preserves the gate count.
    EXPECT_LE(collapsed.net.num_gates(), conv.klut.num_gates());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{6}));

class AigerFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AigerFuzz, BothFormatsRoundTripRandomCircuits)
{
  const auto original = gen::make_random_logic(
      {11u, 7u, 250u, GetParam() + 50u, 35u});
  for (const bool binary : {false, true}) {
    std::stringstream ss;
    if (binary) {
      io::write_aiger_binary(original, ss);
    } else {
      io::write_aiger_ascii(original, ss);
    }
    const auto reread = io::read_aiger(ss);
    ASSERT_EQ(reread.num_gates(), original.num_gates());
    // Exhaustive functional identity over 11 PIs via simulation.
    const auto patterns = sim::pattern_set::exhaustive(11u);
    const auto sa = sim::simulate_aig(original, patterns);
    const auto sb = sim::simulate_aig(reread, patterns);
    for (uint32_t i = 0; i < original.num_pos(); ++i) {
      const auto fa = original.po_at(i);
      const auto fb = reread.po_at(i);
      const uint64_t flip =
          (fa.is_complemented() != fb.is_complemented()) ? ~uint64_t{0} : 0u;
      for (std::size_t w = 0; w < patterns.num_words(); ++w) {
        ASSERT_EQ(sa[fa.get_node()][w] ^ flip, sb[fb.get_node()][w]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AigerFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{6}));

class OpenWordFuzz : public ::testing::TestWithParam<uint64_t>
{
};

/// Property behind the sweepers' one-column counter-example state: once
/// the classes have been refined with a word, nothing reads it again —
/// the partition absorbed it.  Drives a counter-example sequence through
/// a `sim::open_word` column and compares against `simulate_aig` of the
/// final pattern set, a never-trimmed multi-word store: refining from
/// either keeps the partitions identical after every pattern, and after
/// every filled word both equal a fresh build over every word so far.
TEST_P(OpenWordFuzz, RefinementMatchesNeverTrimmedStore)
{
  std::mt19937_64 rng{0xb0d9e7u + GetParam()};
  const auto aig = gen::make_random_logic(
      {10u, 8u, 300u, GetParam() + 77u, 30u});
  // Few initial patterns leave false candidates to split; the counts
  // land on and off a word boundary.
  constexpr uint64_t initial_counts[] = {64u, 9u, 20u, 31u, 2u, 42u, 53u,
                                         75u};
  auto patterns = sim::pattern_set::random(
      aig.num_pis(), initial_counts[GetParam()], GetParam());
  std::vector<std::vector<bool>> ces(200u);
  sim::pattern_set final_patterns = patterns;
  for (std::size_t step = 0; step < ces.size(); ++step) {
    // Sparse flips like real counter-examples, every tenth one dense.
    std::bernoulli_distribution flip{step % 10u == 9u ? 0.5 : 0.1};
    ces[step].resize(aig.num_pis());
    for (std::size_t i = 0; i < ces[step].size(); ++i) {
      ces[step][i] = flip(rng);
    }
    final_patterns.add_pattern(ces[step]);
  }
  const sim::signature_store store = sim::simulate_aig(aig, final_patterns);
  const sim::resim_plan plan = sim::make_resim_plan(aig);
  sim::open_word open{patterns, plan};

  sweep::equiv_classes from_open;
  from_open.build(aig, sim::simulate_aig(aig, patterns),
                  sim::tail_mask(patterns.num_patterns()));
  sweep::equiv_classes from_store = from_open;
  // Class members are sorted, so the front one names the class.
  const auto lowest_member = [](const sweep::equiv_classes& classes,
                                net::node n) {
    const uint32_t c = classes.class_of(n);
    return c == sweep::equiv_classes::no_class ? n
                                               : classes.members(c).front();
  };

  std::vector<uint64_t> store_column(aig.size());
  std::size_t splits = 0;
  for (std::size_t step = 0; step < ces.size(); ++step) {
    patterns.add_pattern(ces[step]);
    open.add_pattern(ces[step]);

    const std::size_t last = patterns.num_words() - 1u;
    for (net::node n = 0; n < aig.size(); ++n) {
      store_column[n] = store.word(n, last);
    }
    const uint64_t mask = sim::tail_mask(patterns.num_patterns());
    splits += from_store.refine_with_word(store_column, mask);
    from_open.refine_with_word(open.column(), open.mask());
    ASSERT_EQ(from_open.num_classes(), from_store.num_classes())
        << "step " << step;
    for (net::node n = 0; n < aig.size(); ++n) {
      ASSERT_EQ(from_open.class_of(n), from_store.class_of(n))
          << "step " << step << " node " << n;
    }

    if (open.full()) {
      // The word is complete and the next pattern starts a fresh one:
      // the column forgets it, the partition must not.
      sweep::equiv_classes rebuilt;
      rebuilt.build(aig, sim::simulate_aig(aig, patterns), mask);
      for (net::node n = 0; n < aig.size(); ++n) {
        ASSERT_EQ(lowest_member(from_open, n), lowest_member(rebuilt, n))
            << "step " << step << " node " << n;
      }
    }
  }
  EXPECT_GT(splits, 0u) << "no counter-example split a class";
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpenWordFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

} // namespace
