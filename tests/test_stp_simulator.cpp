#include "core/stp_simulator.hpp"
#include "cut/lut_mapper.hpp"
#include "gen/arithmetic.hpp"
#include "gen/random_logic.hpp"
#include "network/convert.hpp"
#include "network/traversal.hpp"
#include "sim/bitwise_sim.hpp"
#include "tt/truth_table.hpp"

#include <gtest/gtest.h>

namespace {

using namespace stps;
using knode = net::klut_network::node;

TEST(StpSimulator, AllNodesMatchesBitwiseBaseline)
{
  const auto aig = gen::make_multiplier(8u);
  const auto mapped = cut::lut_map(aig, 6u);
  const auto patterns = sim::pattern_set::random(aig.num_pis(), 1024u, 3u);

  const core::stp_simulator simulator;
  const auto sig_stp = simulator.simulate_all(mapped.klut, patterns);
  const auto sig_ref = sim::simulate_klut_bitwise(mapped.klut, patterns);
  mapped.klut.foreach_gate([&](knode n) {
    EXPECT_EQ(sig_stp[n], sig_ref[n]) << "node " << n;
  });
}

TEST(StpSimulator, AigMatchesBitwiseBaseline)
{
  const auto aig = gen::make_random_logic({16u, 10u, 600u, 42u, 30u});
  const auto patterns = sim::pattern_set::random(16u, 512u, 9u);
  const core::stp_simulator simulator;
  const auto sig_stp = simulator.simulate_aig(aig, patterns);
  const auto sig_ref = sim::simulate_aig(aig, patterns);
  aig.foreach_gate([&](net::node n) {
    EXPECT_EQ(sig_stp[n], sig_ref[n]) << "node " << n;
  });
}

/// 709 patterns are 12 words: one full 8-word block, a 4-word scalar
/// tail, and a partial last word.
TEST(StpSimulator, PartialBlockTailMatchesBitwiseBaseline)
{
  const auto aig = gen::make_random_logic({14u, 9u, 500u, 61u, 25u});
  const auto mapped = cut::lut_map(aig, 6u);
  const auto patterns = sim::pattern_set::random(aig.num_pis(), 709u, 7u);
  ASSERT_EQ(patterns.num_words(), 12u);

  const core::stp_simulator simulator;
  const auto full = sim::simulate_klut_bitwise(mapped.klut, patterns);
  const auto sig_stp = simulator.simulate_all(mapped.klut, patterns);
  std::vector<knode> targets;
  mapped.klut.foreach_gate([&](knode n) {
    EXPECT_EQ(sig_stp[n], full[n]) << "node " << n;
    if (n % 5u == 0u) {
      targets.push_back(n);
    }
  });
  ASSERT_FALSE(targets.empty());

  core::stp_sim_stats stats;
  const auto specified =
      simulator.simulate_specified(mapped.klut, targets, patterns, &stats);
  EXPECT_EQ(stats.leaf_limit, 9u);
  for (const knode t : targets) {
    EXPECT_EQ(full[t], specified.at(t)) << "target " << t;
  }
}

/// 2^14 + 37 patterns are 257 words (a partial last word), so every
/// store of this 2k-gate AIG is above 2 MiB and lives in a mapped
/// huge-page arena; every simulator must still match the bitwise AIG
/// reference on every PO and leave canonical tails.
TEST(StpSimulator, MappedStoresMatchBitwiseBaselineOnEveryPo)
{
  const auto aig = gen::make_random_logic({24u, 40u, 2000u, 17u, 25u});
  const auto conv = net::aig_to_klut(aig);
  const uint64_t num_patterns = (uint64_t{1} << 14u) + 37u;
  const auto patterns =
      sim::pattern_set::random(aig.num_pis(), num_patterns, 5u);
  ASSERT_EQ(patterns.num_words(), 257u);

  const uint64_t mask = sim::tail_mask(num_patterns);
  const core::stp_simulator simulator;
  const auto reference = sim::simulate_aig(aig, patterns);
  const auto stp_aig = simulator.simulate_aig(aig, patterns);
  const auto stp_klut = simulator.simulate_all(conv.klut, patterns);
  const auto bitwise_klut = sim::simulate_klut_bitwise(conv.klut, patterns);
  for (const auto* sig : {&reference, &stp_aig, &stp_klut, &bitwise_klut}) {
    ASSERT_GT(sig->size() * sig->num_words() * sizeof(uint64_t),
              std::size_t{2} << 20u);
    for (std::size_t n = 0; n < sig->size(); ++n) {
      ASSERT_EQ(sig->word(n, 256u) & ~mask, 0u)
          << "node " << n;
    }
  }

  ASSERT_EQ(conv.klut.num_pos(), aig.num_pos());
  aig.foreach_po([&](net::signal f, uint32_t i) {
    const uint64_t flip = f.is_complemented() ? ~uint64_t{0} : 0u;
    const knode k = conv.klut.po_at(i);
    for (std::size_t w = 0; w < 257u; ++w) {
      const uint64_t keep = w == 256u ? mask : ~uint64_t{0};
      const uint64_t want = (reference.word(f.get_node(), w) ^ flip) & keep;
      ASSERT_EQ((stp_aig.word(f.get_node(), w) ^ flip) & keep, want)
          << "PO " << i << " word " << w;
      ASSERT_EQ(stp_klut.word(k, w), want) << "PO " << i << " word " << w;
      ASSERT_EQ(bitwise_klut.word(k, w), want) << "PO " << i << " word " << w;
    }
  });
}

class SpecifiedSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(SpecifiedSweep, SpecifiedNodesMatchFullSimulation)
{
  const uint32_t limit_override = GetParam();
  const auto aig = gen::make_random_logic({12u, 8u, 400u, 55u, 25u});
  const auto conv = net::aig_to_klut(aig);
  const auto patterns = sim::pattern_set::random(12u, 256u, 4u);

  std::vector<knode> targets;
  conv.klut.foreach_gate([&](knode n) {
    if (n % 11u == 0u) {
      targets.push_back(n);
    }
  });
  ASSERT_FALSE(targets.empty());

  const core::stp_simulator simulator{limit_override};
  core::stp_sim_stats stats;
  const auto result =
      simulator.simulate_specified(conv.klut, targets, patterns, &stats);
  const auto full = sim::simulate_klut_bitwise(conv.klut, patterns);
  for (const knode t : targets) {
    ASSERT_TRUE(result.count(t));
    EXPECT_EQ(result.at(t), full[t]) << "target " << t;
  }
  EXPECT_GT(stats.num_cuts, 0u);
  EXPECT_GT(stats.num_simulated, 0u);
  // Simulating only needed cones must not exceed the cut count.
  EXPECT_LE(stats.num_simulated, stats.num_cuts);
}

INSTANTIATE_TEST_SUITE_P(Limits, SpecifiedSweep,
                         ::testing::Values(0u, 2u, 3u, 4u, 6u, 8u));

TEST(StpSimulator, LeafLimitFollowsLog2Rule)
{
  // Alg. 1 line 4: limit = log2(#patterns).
  const auto aig = gen::make_adder(8u);
  const auto conv = net::aig_to_klut(aig);
  std::vector<knode> targets{conv.node_map[net::topo_order(aig).back()]};

  for (const uint64_t n_pat : {16u, 64u, 1024u}) {
    const auto patterns =
        sim::pattern_set::random(aig.num_pis(), n_pat, 1u);
    core::stp_sim_stats stats;
    const core::stp_simulator simulator;
    simulator.simulate_specified(conv.klut, targets, patterns, &stats);
    uint32_t expect = 0;
    while ((uint64_t{1} << (expect + 1u)) <= n_pat) {
      ++expect;
    }
    EXPECT_EQ(stats.leaf_limit, std::max(expect, 2u)) << n_pat;
  }
}

/// §III-C: the paper's worked example — 5 PIs, six NAND nodes, 10
/// patterns, limit 3, cuts {6,10}, {7}, {8}, {9,11}; exhaustive
/// signatures 7: 1110 and 8: 11110001.
TEST(StpSimulator, PaperFigure1Example)
{
  net::klut_network klut;
  const knode n1 = klut.create_pi("1");
  const knode n2 = klut.create_pi("2");
  const knode n3 = klut.create_pi("3");
  const knode n4 = klut.create_pi("4");
  const knode n5 = klut.create_pi("5");
  const auto nand2 = tt::truth_table::from_binary("0111");
  const knode fis6[2] = {n1, n3};
  const knode node6 = klut.create_node(fis6, nand2);
  const knode fis7[2] = {n2, n3};
  const knode node7 = klut.create_node(fis7, nand2);
  const knode fis8[2] = {n3, n4};
  const knode node8 = klut.create_node(fis8, nand2);
  const knode fis9[2] = {n4, n5};
  const knode node9 = klut.create_node(fis9, nand2);
  const knode fis10[2] = {node6, node7};
  const knode node10 = klut.create_node(fis10, nand2);
  const knode fis11[2] = {node8, node9};
  const knode node11 = klut.create_node(fis11, nand2);
  klut.create_po(node10, "po1");
  klut.create_po(node11, "po2");

  // Exhaustive simulation over the supports of nodes 7 and 8:
  // node 7 = NAND(2,3) over PIs {2,3}: TT 1110 read MSB-first = 0111 …
  // the paper prints signatures LSB-pattern-first; check via values.
  const std::vector<knode> targets{node7, node8};

  // The paper's 10 patterns.
  sim::pattern_set patterns{5u};
  const char* rows[5] = {
      "0111001011", "1010011011", "1110011000", "0000011111", "1010000101"};
  for (uint32_t p = 0; p < 10u; ++p) {
    std::vector<bool> assignment;
    for (uint32_t i = 0; i < 5u; ++i) {
      assignment.push_back(rows[i][p] == '1');
    }
    patterns.add_pattern(assignment);
  }
  ASSERT_EQ(patterns.num_patterns(), 10u);

  core::stp_sim_stats stats;
  const core::stp_simulator simulator;
  const auto result =
      simulator.simulate_specified(klut, targets, patterns, &stats);

  // limit = floor(log2(10)) = 3, as in the paper.
  EXPECT_EQ(stats.leaf_limit, 3u);

  // Signatures must agree with the direct bitwise simulation.
  const auto full = sim::simulate_klut_bitwise(klut, patterns);
  EXPECT_EQ(result.at(node7), full[node7]);
  EXPECT_EQ(result.at(node8), full[node8]);

  // Exhaustive view of the paper: node 7 over (2,3) has TT 1110 —
  // NAND is 0 only when both inputs are 1.
  const auto exhaustive2 = sim::pattern_set::exhaustive(5u);
  const auto sig_ex = sim::simulate_klut_bitwise(klut, exhaustive2);
  // node 7 depends only on PIs 2,3; collapse its signature to those vars.
  for (uint32_t v2 = 0; v2 < 2u; ++v2) {
    for (uint32_t v3 = 0; v3 < 2u; ++v3) {
      const uint64_t pattern = (v2 << 1u) | (v3 << 2u);
      const bool val = (sig_ex[node7][0] >> pattern) & 1u;
      EXPECT_EQ(val, !(v2 && v3));
    }
  }
}

} // namespace
