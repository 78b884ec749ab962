#include "gen/arithmetic.hpp"
#include "network/convert.hpp"
#include "network/klut.hpp"
#include "sim/bitwise_sim.hpp"
#include "tt/operations.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using stps::net::klut_network;

TEST(Klut, ConstantsAndPis)
{
  klut_network klut;
  EXPECT_EQ(klut.get_constant(false), 0u);
  EXPECT_EQ(klut.get_constant(true), 1u);
  const auto pi = klut.create_pi("x");
  EXPECT_TRUE(klut.is_pi(pi));
  EXPECT_EQ(klut.num_pis(), 1u);
  EXPECT_EQ(klut.num_gates(), 0u);
}

TEST(Klut, CreateNodeValidation)
{
  klut_network klut;
  const auto a = klut.create_pi();
  const auto b = klut.create_pi();
  const klut_network::node fis[2] = {a, b};
  // Arity mismatch throws.
  EXPECT_THROW(klut.create_node(fis, stps::tt::make_maj3()),
               std::invalid_argument);
  const auto g = klut.create_node(fis, stps::tt::make_and2());
  EXPECT_TRUE(klut.is_gate(g));
  EXPECT_EQ(klut.num_gates(), 1u);
  EXPECT_EQ(klut.fanin_count(g), 2u);
  EXPECT_EQ(klut.max_fanin_size(), 2u);
  // Fanins must precede the node.
  const klut_network::node bad[1] = {g + 5u};
  EXPECT_THROW(klut.create_node(bad, stps::tt::make_const0(1u)),
               std::invalid_argument);
  // No PIs after gates.
  EXPECT_THROW(klut.create_pi(), std::logic_error);
}

TEST(Klut, AigConversionPreservesFunctions)
{
  auto aig = stps::gen::make_adder(8u);
  const auto conv = stps::net::aig_to_klut(aig);
  ASSERT_EQ(conv.klut.num_pis(), aig.num_pis());
  ASSERT_EQ(conv.klut.num_pos(), aig.num_pos());

  const auto patterns = stps::sim::pattern_set::random(aig.num_pis(), 512u, 3u);
  const auto sig_aig = stps::sim::simulate_aig(aig, patterns);
  const auto sig_klut = stps::sim::simulate_klut_bitwise(conv.klut, patterns);

  for (uint32_t i = 0; i < aig.num_pos(); ++i) {
    const auto f = aig.po_at(i);
    const auto k = conv.klut.po_at(i);
    for (std::size_t w = 0; w < patterns.num_words(); ++w) {
      const uint64_t va = sig_aig[f.get_node()][w] ^
                          (f.is_complemented() ? ~uint64_t{0} : 0u);
      uint64_t vk = sig_klut[k][w];
      uint64_t mask = ~uint64_t{0};
      if (w + 1u == patterns.num_words() &&
          (patterns.num_patterns() % 64u) != 0u) {
        mask = (uint64_t{1} << (patterns.num_patterns() % 64u)) - 1u;
      }
      EXPECT_EQ(va & mask, vk & mask) << "PO " << i << " word " << w;
    }
  }
}

TEST(Klut, ForeachVisitsInOrder)
{
  klut_network klut;
  const auto a = klut.create_pi();
  const auto b = klut.create_pi();
  const klut_network::node fis[2] = {a, b};
  const auto g1 = klut.create_node(fis, stps::tt::make_and2());
  const klut_network::node fis2[2] = {g1, b};
  const auto g2 = klut.create_node(fis2, stps::tt::make_or2());
  klut.create_po(g2);

  std::vector<klut_network::node> gates;
  klut.foreach_gate([&](klut_network::node n) { gates.push_back(n); });
  ASSERT_EQ(gates.size(), 2u);
  EXPECT_EQ(gates[0], g1);
  EXPECT_EQ(gates[1], g2);
}

} // namespace
