#include "gen/arithmetic.hpp"
#include "network/traversal.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace {

using stps::net::aig_network;
using stps::net::node;
using signal = stps::net::signal; // shadow POSIX ::signal
using stps::net::topo_order;
using stps::net::reverse_topo_order;
using stps::net::levels;
using stps::net::depth;
using stps::net::transitive_fanin;
using stps::net::in_transitive_fanout;
using stps::net::support;
using stps::net::bounded_support;

TEST(Traversal, TopoOrderRespectsFanins)
{
  auto aig = stps::gen::make_multiplier(6u);
  const auto order = topo_order(aig);
  EXPECT_EQ(order.size(), aig.num_gates());
  std::vector<uint32_t> position(aig.size(), 0u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[order[i]] = static_cast<uint32_t>(i + 1u);
  }
  for (const node n : order) {
    for (const signal f : {aig.fanin0(n), aig.fanin1(n)}) {
      if (aig.is_and(f.get_node())) {
        EXPECT_LT(position[f.get_node()], position[n]);
      }
    }
  }
  const auto rev = reverse_topo_order(aig);
  EXPECT_TRUE(std::equal(order.begin(), order.end(), rev.rbegin()));
}

TEST(Traversal, LevelsAndDepth)
{
  aig_network aig;
  const signal a = aig.create_pi();
  const signal b = aig.create_pi();
  const signal c = aig.create_pi();
  const signal g1 = aig.create_and(a, b);
  const signal g2 = aig.create_and(g1, c);
  aig.create_po(g2);
  const auto level = levels(aig);
  EXPECT_EQ(level[a.get_node()], 0u);
  EXPECT_EQ(level[g1.get_node()], 1u);
  EXPECT_EQ(level[g2.get_node()], 2u);
  EXPECT_EQ(depth(aig), 2u);
}

TEST(Traversal, TransitiveFaninBounded)
{
  auto aig = stps::gen::make_adder(16u);
  const auto order = topo_order(aig);
  const node root = order.back();
  const auto unbounded = transitive_fanin(aig, root, 100000u);
  EXPECT_GT(unbounded.size(), 10u);
  const auto bounded = transitive_fanin(aig, root, 5u);
  EXPECT_EQ(bounded.size(), 5u);
  // The bounded set is a subset of the full TFI.
  for (const node n : bounded) {
    EXPECT_NE(std::find(unbounded.begin(), unbounded.end(), n),
              unbounded.end());
  }
}

TEST(Traversal, TransitiveFanoutQuery)
{
  aig_network aig;
  const signal a = aig.create_pi();
  const signal b = aig.create_pi();
  const signal c = aig.create_pi();
  const signal g1 = aig.create_and(a, b);
  const signal g2 = aig.create_and(g1, c);
  const signal g3 = aig.create_and(a, c);
  aig.create_po(g2);
  aig.create_po(g3);
  EXPECT_TRUE(in_transitive_fanout(aig, g1.get_node(), g2.get_node()));
  EXPECT_FALSE(in_transitive_fanout(aig, g1.get_node(), g3.get_node()));
  EXPECT_FALSE(in_transitive_fanout(aig, g2.get_node(), g1.get_node()));
  EXPECT_TRUE(in_transitive_fanout(aig, g2.get_node(), g2.get_node()));
}

TEST(Traversal, SupportComputation)
{
  aig_network aig;
  const signal a = aig.create_pi();
  const signal b = aig.create_pi();
  const signal c = aig.create_pi();
  (void)c;
  const signal g = aig.create_and(a, !b);
  aig.create_po(g);
  const auto sup = support(aig, g.get_node());
  ASSERT_EQ(sup.size(), 2u);
  EXPECT_EQ(sup[0], a.get_node());
  EXPECT_EQ(sup[1], b.get_node());
}

TEST(Traversal, BoundedSupportAbandonsLargeCones)
{
  auto aig = stps::gen::make_adder(32u);
  const auto order = topo_order(aig);
  const node deep = order.back();
  std::vector<node> out;
  EXPECT_FALSE(bounded_support(aig, std::span<const node>{&deep, 1u}, 4u,
                               out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(bounded_support(aig, std::span<const node>{&deep, 1u}, 100u,
                              out));
  EXPECT_EQ(out, support(aig, deep));
}

TEST(Traversal, BoundedSupportBoundsPrimaryInputRoots)
{
  aig_network aig;
  std::vector<node> pis;
  for (int i = 0; i < 5; ++i) {
    pis.push_back(aig.create_pi().get_node());
  }
  std::vector<node> out;
  EXPECT_FALSE(bounded_support(aig, pis, 4u, out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(bounded_support(aig, std::span<const node>{pis.data(), 1u},
                               0u, out));
  EXPECT_TRUE(bounded_support(aig, pis, 5u, out));
  EXPECT_EQ(out, pis);
}

} // namespace
