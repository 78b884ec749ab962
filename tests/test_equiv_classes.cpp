#include "gen/random_logic.hpp"
#include "sim/bitwise_sim.hpp"
#include "sweep/equiv_classes.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>

namespace {

using namespace stps;
using sweep::equiv_classes;

/// Small fixture: hand-built one-word signatures over a dense id space
/// (0 = constant; unspecified nodes keep all-zero rows).
sim::signature_store make_signatures(
    std::initializer_list<std::pair<net::node, uint64_t>> rows,
    std::size_t size)
{
  sim::signature_store sig(size, 1u);
  for (const auto& [n, w] : rows) {
    sig.word(n, 0u) = w;
  }
  return sig;
}

TEST(EquivClasses, GroupsEqualAndComplementSignatures)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto g1 = aig.create_and(a, b);
  const auto g2 = aig.create_and(a, !b);
  const auto g3 = aig.create_and(!a, b);
  aig.create_po(g1);
  aig.create_po(g2);
  aig.create_po(g3);
  const net::node n1 = g1.get_node(), n2 = g2.get_node(),
                  n3 = g3.get_node();

  // g1 and g2 share a signature; g3 is the complement of g1.
  auto sig = make_signatures({{0u, 0u},
                              {a.get_node(), 0x0fu},
                              {b.get_node(), 0x33u},
                              {n1, 0x5au},
                              {n2, 0x5au},
                              {n3, ~uint64_t{0x5au}}},
                             aig.size());

  equiv_classes classes;
  classes.build(aig, sig);
  ASSERT_NE(classes.class_of(n1), equiv_classes::no_class);
  EXPECT_EQ(classes.class_of(n1), classes.class_of(n2));
  EXPECT_EQ(classes.class_of(n1), classes.class_of(n3));
  EXPECT_FALSE(classes.complemented(n1, n2));
  EXPECT_TRUE(classes.complemented(n1, n3));
  // PIs with unique signatures are not in any class.
  EXPECT_EQ(classes.class_of(a.get_node()), equiv_classes::no_class);

  // Three words, 8 valid bits in the last: bits past the mask never
  // split a class, a difference inside it (or in a full word) does.
  const uint64_t last_mask = 0xffu;
  const auto build_masked = [&](uint64_t n2_full, uint64_t n2_last) {
    sim::signature_store wide(aig.size(), 3u);
    const auto set_row = [&](net::node n, uint64_t full, uint64_t last) {
      wide.word(n, 0u) = full;
      wide.word(n, 1u) = full;
      wide.word(n, 2u) = last;
    };
    set_row(a.get_node(), 0x0fu, 0x0fu);
    set_row(b.get_node(), 0x33u, 0x33u);
    set_row(n1, 0x5au, 0x5au);
    set_row(n2, n2_full, n2_last);
    set_row(n3, ~uint64_t{0x5au}, ~uint64_t{0x5au} ^ (uint64_t{0x3} << 40u));
    classes.build(aig, wide, last_mask);
  };
  build_masked(0x5au, 0x5au | (uint64_t{1} << 63u));
  ASSERT_NE(classes.class_of(n1), equiv_classes::no_class);
  EXPECT_EQ(classes.class_of(n1), classes.class_of(n2));
  EXPECT_EQ(classes.class_of(n1), classes.class_of(n3));
  EXPECT_TRUE(classes.complemented(n1, n3));
  build_masked(0x5au, 0x5au ^ 0x80u);
  EXPECT_NE(classes.class_of(n1), classes.class_of(n2));
  EXPECT_EQ(classes.class_of(n1), classes.class_of(n3));
  build_masked(0x5au ^ (uint64_t{1} << 63u), 0x5au);
  EXPECT_NE(classes.class_of(n1), classes.class_of(n2));
  EXPECT_EQ(classes.class_of(n1), classes.class_of(n3));
}

TEST(EquivClasses, ConstantClassContainsNodeZero)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto g = aig.create_and(a, !a); // strashes to const — build manually
  (void)g;
  const auto b = aig.create_pi();
  const auto h = aig.create_and(a, b);
  aig.create_po(h);
  const net::node n = h.get_node();

  // Pretend h simulates all-ones: candidate for constant 1.
  auto sig = make_signatures(
      {{0u, 0u}, {a.get_node(), 0x3u}, {b.get_node(), 0x5u},
       {n, ~uint64_t{0}}},
      aig.size());
  equiv_classes classes;
  classes.build(aig, sig);
  const uint32_t c = classes.class_of(n);
  ASSERT_NE(c, equiv_classes::no_class);
  EXPECT_EQ(classes.class_of(0u), c);
  EXPECT_TRUE(classes.complemented(0u, n)); // h == !const0 == 1
}

TEST(EquivClasses, RefineSplitsOnNewWord)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto g1 = aig.create_and(a, b);
  const auto g2 = aig.create_and(a, !b);
  aig.create_po(g1);
  aig.create_po(g2);
  const net::node n1 = g1.get_node(), n2 = g2.get_node();

  sim::signature_store sig(aig.size(), 1u);
  sig.word(a.get_node(), 0u) = 0xffu;
  sig.word(b.get_node(), 0u) = 0xf0u;
  sig.word(n1, 0u) = 0xaau;
  sig.word(n2, 0u) = 0xaau;

  equiv_classes classes;
  classes.build(aig, sig);
  ASSERT_EQ(classes.class_of(n1), classes.class_of(n2));

  // A counter-example lands in the next word's column and separates
  // them.
  std::vector<uint64_t> column(aig.size(), 0u);
  column[n1] = 0x1u;
  const std::size_t created = classes.refine_with_word(column);
  EXPECT_GE(created, 0u);
  EXPECT_EQ(classes.class_of(n1), equiv_classes::no_class);
  EXPECT_EQ(classes.class_of(n2), equiv_classes::no_class);
}

TEST(EquivClasses, RefineKeepsComplementPairsTogether)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto g1 = aig.create_and(a, b);
  const auto g2 = aig.create_and(!a, !b);
  aig.create_po(g1);
  aig.create_po(g2);
  const net::node n1 = g1.get_node(), n2 = g2.get_node();

  sim::signature_store sig(aig.size(), 1u);
  sig.word(a.get_node(), 0u) = 0x6u;
  sig.word(b.get_node(), 0u) = 0x3u;
  sig.word(n1, 0u) = 0x2u;            // phase 0
  sig.word(n2, 0u) = ~uint64_t{0x2u}; // phase 1 (complement)
  equiv_classes classes;
  classes.build(aig, sig);
  ASSERT_EQ(classes.class_of(n1), classes.class_of(n2));

  // New word keeps them complementary → no split.
  std::vector<uint64_t> column(aig.size(), 0u);
  column[n1] = 0x55u;
  column[n2] = ~uint64_t{0x55u};
  classes.refine_with_word(column);
  EXPECT_EQ(classes.class_of(n1), classes.class_of(n2));
  EXPECT_NE(classes.class_of(n1), equiv_classes::no_class);
}

TEST(EquivClasses, SplitByKeysAndRemoveMember)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto c = aig.create_pi();
  const auto g1 = aig.create_and(a, b);
  const auto g2 = aig.create_and(a, c);
  const auto g3 = aig.create_and(b, c);
  aig.create_po(g1);
  aig.create_po(g2);
  aig.create_po(g3);
  const net::node n1 = g1.get_node(), n2 = g2.get_node(),
                  n3 = g3.get_node();

  sim::signature_store sig(aig.size(), 1u);
  sig.word(a.get_node(), 0u) = 0x1u;
  sig.word(b.get_node(), 0u) = 0x2u;
  sig.word(c.get_node(), 0u) = 0x4u;
  sig.word(n1, 0u) = 0x8u;
  sig.word(n2, 0u) = 0x8u;
  sig.word(n3, 0u) = 0x8u;
  equiv_classes classes;
  classes.build(aig, sig);
  const uint32_t cls = classes.class_of(n1);
  ASSERT_EQ(classes.members(cls).size(), 3u);

  // Exact keys separate n3.
  classes.split_by_keys(cls, {7u, 7u, 9u});
  EXPECT_EQ(classes.class_of(n1), classes.class_of(n2));
  EXPECT_EQ(classes.class_of(n3), equiv_classes::no_class); // singleton

  classes.remove_member(n1);
  // n2 alone dissolves.
  EXPECT_EQ(classes.class_of(n2), equiv_classes::no_class);
  EXPECT_EQ(classes.num_classes(), 0u);
}

TEST(EquivClasses, DenseRefinementMatchesMapBasedReference)
{
  // The dense epoch-stamped partition core must produce exactly the
  // partition an ordered-map grouping produces, on randomized classes,
  // across several refinement rounds (so scratch reuse is exercised).
  const auto aig = gen::make_random_logic({10u, 8u, 400u, 123u, 30u});
  const auto patterns = sim::pattern_set::random(10u, 128u, 7u);
  const auto sig = sim::simulate_aig(aig, patterns);
  equiv_classes classes;
  classes.build(aig, sig);
  ASSERT_GT(classes.num_classes(), 0u);

  std::mt19937_64 rng{2024u};
  std::uniform_int_distribution<uint64_t> pick(0u, 3u);
  std::vector<uint64_t> column(aig.size());
  for (int round = 0; round < 6; ++round) {
    // Small value alphabet → classes split partially, not into dust.
    for (uint64_t& word : column) {
      word = pick(rng) * 0x9e3779b97f4a7c15ull;
    }
    const uint64_t mask = round % 2 == 0 ? ~uint64_t{0}
                                         : 0xffff0000ffff0000ull;

    // Reference partition per class, computed with an ordered map before
    // refinement mutates anything.
    std::vector<std::vector<std::vector<net::node>>> expected;
    for (uint32_t c = 0; c < classes.num_class_ids(); ++c) {
      const auto& members = classes.members(c);
      if (members.size() < 2u) {
        continue;
      }
      std::map<uint64_t, std::vector<net::node>> parts;
      for (const net::node m : members) {
        const uint64_t flip = classes.phase(m) ? ~uint64_t{0} : 0u;
        parts[(column[m] ^ flip) & mask].push_back(m);
      }
      auto& groups = expected.emplace_back();
      for (auto& [key, part] : parts) {
        groups.push_back(std::move(part));
      }
    }

    classes.refine_with_word(column, mask);

    for (const auto& groups : expected) {
      for (const auto& part : groups) {
        if (groups.size() == 1u) {
          // No split: the class must have stayed together.
          for (const net::node m : part) {
            EXPECT_EQ(classes.class_of(m), classes.class_of(part.front()));
          }
          EXPECT_NE(classes.class_of(part.front()), equiv_classes::no_class);
          continue;
        }
        if (part.size() == 1u) {
          EXPECT_EQ(classes.class_of(part.front()), equiv_classes::no_class)
              << "singleton group must dissolve";
          continue;
        }
        const uint32_t cid = classes.class_of(part.front());
        ASSERT_NE(cid, equiv_classes::no_class);
        EXPECT_EQ(classes.members(cid).size(), part.size());
        for (const net::node m : part) {
          EXPECT_EQ(classes.class_of(m), cid);
        }
      }
    }
  }
}

TEST(EquivClasses, CandidateCountsRealCircuit)
{
  const auto aig = gen::make_random_logic({10u, 8u, 500u, 77u, 30u});
  const auto patterns = sim::pattern_set::random(10u, 64u, 3u);
  const auto sig = sim::simulate_aig(aig, patterns);
  equiv_classes classes;
  classes.build(aig, sig);
  // With only 64 patterns over 10 PIs there are usually candidates; the
  // structural claim is just consistency of the counters.
  std::size_t total = 0;
  for (uint32_t c = 0; c < classes.num_class_ids(); ++c) {
    if (!classes.members(c).empty()) {
      EXPECT_GE(classes.members(c).size(), 2u);
      total += classes.members(c).size();
    }
  }
  EXPECT_EQ(total, classes.num_candidate_nodes());
}

} // namespace
