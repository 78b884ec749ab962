#include "gen/arithmetic.hpp"
#include "gen/benchmarks.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sim/bitwise_sim.hpp"
#include "sweep/cec.hpp"
#include "sweep/fraig.hpp"
#include "sweep/sat_patterns.hpp"
#include "sweep/stp_sweeper.hpp"

#include <gtest/gtest.h>

#include <bit>

namespace {

using namespace stps;

net::aig_network redundant_test_circuit(uint64_t seed, uint32_t gates = 800u)
{
  const auto base = gen::make_random_logic({12u, 10u, gates, seed, 25u});
  return gen::inject_redundancy(base, {8u, 4u, seed});
}

TEST(GuidedPatterns, ProvenConstantsAreRealConstants)
{
  const auto aig = redundant_test_circuit(5u);
  sat::cnf_manager cnf{aig};
  sweep::guided_pattern_config config;
  config.base_patterns = 256u;
  const auto result = sweep::sat_guided_patterns(aig, cnf, config);

  // Hidden constants must be found (the generator plants several).
  EXPECT_FALSE(result.proven_constants.empty());
  for (const auto& [n, value] : result.proven_constants) {
    // Verify with an independent solver instance.
    sat::solver s2;
    sat::aig_encoder e2{aig, s2};
    EXPECT_EQ(e2.prove_constant(net::signal{n, false}, value, -1),
              sat::result::unsat)
        << "node " << n;
  }
  EXPECT_EQ(result.patterns.num_patterns(),
            config.base_patterns + result.patterns_added);
}

TEST(GuidedPatterns, FoldAcrossWordBoundariesKeepsSignaturesExact)
{
  // Witnesses fill the open word and start fresh ones; each full word is
  // folded into per-node running values before the column is reused.  A
  // fold that counted a word twice would make a constant-looking gate
  // look toggled, so round 1 would skip it.  With an unlimited budget
  // round 1 leaves every gate either proven constant or toggling.  The
  // base sizes leave the last base word partial, full and partial.
  for (const uint64_t base : {100u, 128u, 200u}) {
    for (const uint64_t seed : {3u, 4u}) {
      const auto aig = redundant_test_circuit(seed, 1500u);
      sat::cnf_manager cnf{aig};
      sweep::guided_pattern_config config;
      config.base_patterns = base;
      config.seed = seed;
      config.conflict_budget = -1;
      config.round2_ones_threshold = 32u; // more witnesses
      const auto result = sweep::sat_guided_patterns(aig, cnf, config);
      const uint64_t total = result.patterns.num_patterns();
      ASSERT_EQ(total, base + result.patterns_added);
      // The last witness lies at least two words past the last base word.
      ASSERT_GE((total - 1u) / 64u, (base - 1u) / 64u + 2u)
          << "base " << base << " seed " << seed << ": only "
          << result.patterns_added << " witnesses";

      std::vector<bool> proven(aig.size(), false);
      for (const auto& [n, value] : result.proven_constants) {
        proven[n] = true;
      }
      const auto sig = sim::simulate_aig(aig, result.patterns);
      aig.foreach_gate([&](net::node n) {
        if (proven[n]) {
          return;
        }
        uint64_t ones = 0;
        for (std::size_t w = 0; w < sig.num_words(); ++w) {
          ones += std::popcount(sig.word(n, w));
        }
        EXPECT_TRUE(ones != 0u && ones != total)
            << "base " << base << " seed " << seed << ": gate " << n
            << " never toggles";
      });
    }
  }
}

TEST(Fraig, SweepsRedundantCircuitSoundly)
{
  auto aig = redundant_test_circuit(7u);
  const net::aig_network original = aig;
  const uint32_t before = aig.num_gates();

  const auto stats = sweep::fraig_sweep(aig, {512u, 1u, -1});
  EXPECT_EQ(stats.gates_before, before);
  EXPECT_EQ(stats.gates_after, aig.num_gates());
  EXPECT_LT(aig.num_gates(), before); // redundancy must be removed
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.sat_calls_total, 0u);

  const auto cec = sweep::check_equivalence(original, aig);
  EXPECT_TRUE(cec.equivalent) << "fraig broke the circuit";
}

TEST(StpSweep, SweepsRedundantCircuitSoundly)
{
  auto aig = redundant_test_circuit(7u);
  const net::aig_network original = aig;
  const uint32_t before = aig.num_gates();

  sweep::stp_sweep_params params;
  params.guided.base_patterns = 512u;
  const auto stats = sweep::stp_sweep(aig, params);
  EXPECT_LT(aig.num_gates(), before);
  EXPECT_GT(stats.merges, 0u);

  const auto cec = sweep::check_equivalence(original, aig);
  EXPECT_TRUE(cec.equivalent) << "stp_sweep broke the circuit";
}

TEST(StpSweep, MatchesFraigQuality)
{
  // Paper: "the number of Result remains consistent across both engines".
  for (const uint64_t seed : {11u, 12u, 13u}) {
    auto a1 = redundant_test_circuit(seed, 500u);
    auto a2 = a1;
    sweep::fraig_sweep(a1, {512u, 1u, -1});
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 512u;
    sweep::stp_sweep(a2, params);
    EXPECT_EQ(a1.num_gates(), a2.num_gates()) << "seed " << seed;
  }
}

TEST(StpSweep, ReducesSatisfiableSatCalls)
{
  // The headline mechanism of Table II: exhaustive windows cut the
  // number of CE-producing (satisfiable) equivalence queries.
  auto a1 = redundant_test_circuit(21u, 1200u);
  auto a2 = a1;
  const auto base = sweep::fraig_sweep(a1, {512u, 1u, -1});
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 512u;
  const auto ours = sweep::stp_sweep(a2, params);
  EXPECT_LE(ours.sat_calls_satisfiable, base.sat_calls_satisfiable);
}

TEST(StpSweep, WindowMergesHappen)
{
  auto aig = redundant_test_circuit(31u);
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  const auto stats = sweep::stp_sweep(aig, params);
  EXPECT_GT(stats.window_merges, 0u)
      << "exhaustive window resolution never fired";
}

TEST(StpSweep, AblationFlagsStillSound)
{
  for (int variant = 0; variant < 2; ++variant) {
    auto aig = redundant_test_circuit(40u + variant, 400u);
    const net::aig_network original = aig;
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 256u;
    params.use_guided_patterns = variant != 0;
    if (variant == 1) { // no class fits in zero leaves: windows off
      params.window_max_support = 0u;
      params.window_scale_gates = 0u;
    }
    const auto stats = sweep::stp_sweep(aig, params);
    if (variant == 1) {
      EXPECT_EQ(stats.window_merges, 0u);
    }
    const auto cec = sweep::check_equivalence(original, aig);
    EXPECT_TRUE(cec.equivalent) << "variant " << variant;
  }
}

TEST(StpSweep, TinyConflictBudgetMarksDontTouch)
{
  auto aig = gen::inject_redundancy(gen::make_multiplier(10u),
                                    {10u, 2u, 3u});
  const net::aig_network original = aig;
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 128u;
  params.guided.conflict_budget = 1;
  params.conflict_budget = 1; // almost everything times out
  params.window_max_support = 0u; // windows off: candidates reach SAT
  params.window_scale_gates = 0u;
  const auto stats = sweep::stp_sweep(aig, params);
  EXPECT_EQ(stats.window_merges, 0u);
  // Soundness is non-negotiable even when everything is unDET.
  const auto cec = sweep::check_equivalence(original, aig);
  EXPECT_TRUE(cec.equivalent);
}

TEST(StpSweep, EffectiveWindowSupportScalesWithGateCount)
{
  sweep::stp_sweep_params params; // base 15, +1 per quadrupling from 30k
  EXPECT_EQ(params.effective_window_support(1'000u), 15u);
  EXPECT_EQ(params.effective_window_support(29'999u), 15u);
  EXPECT_EQ(params.effective_window_support(30'000u), 16u);
  EXPECT_EQ(params.effective_window_support(120'000u), 17u);
  EXPECT_EQ(params.effective_window_support(480'000u), 18u);
  EXPECT_EQ(params.effective_window_support(1'919'999u), 18u);
  EXPECT_EQ(params.effective_window_support(1'920'000u), 19u); // scale-4 tier
  EXPECT_EQ(params.effective_window_support(1u << 30u), 19u);  // capped
  params.window_scale_gates = 0u; // scaling disabled
  EXPECT_EQ(params.effective_window_support(1u << 30u), 15u);
  params.window_scale_gates = 30'000u;
  params.window_max_support_scaled = 14u; // cap below base: base wins
  EXPECT_EQ(params.effective_window_support(1u << 30u), 15u);
}

TEST(StpSweep, EffectiveBudgetsScaleWithGateCount)
{
  // Patterns: 250 per 1000 gates, floored at 128, rounded up to a whole
  // word.  Round-2 queries: 16 per 1000 gates, floored at 32.  The
  // defaults cap them at 1024 and 512; a huge cap shows the raw scale.
  sweep::stp_sweep_params capped;
  sweep::stp_sweep_params raw;
  raw.guided.base_patterns = 1u << 20u;
  raw.guided.max_round2_queries = 1u << 20u;
  struct row { uint64_t gates, patterns, raw_patterns, queries, raw_queries; };
  for (const row& r : {row{0u, 128u, 128u, 32u, 32u},
                       row{1'000u, 256u, 256u, 32u, 32u},
                       row{30'000u, 1024u, 7'552u, 480u, 480u},
                       row{1'000'000u, 1024u, 250'048u, 512u, 16'000u}}) {
    EXPECT_EQ(capped.effective_pattern_budget(r.gates), r.patterns);
    EXPECT_EQ(raw.effective_pattern_budget(r.gates), r.raw_patterns);
    EXPECT_EQ(capped.effective_round2_queries(r.gates), r.queries);
    EXPECT_EQ(raw.effective_round2_queries(r.gates), r.raw_queries);
  }
}

TEST(StpSweep, WindowSupportLimitIsResultInvariant)
{
  // Window resolution is exact, so a larger support limit only moves
  // merges from SAT to windows — the result network cannot change.
  auto base = gen::inject_redundancy(
      gen::make_random_logic({14u, 6u, 380u, 0x31d0u, 35u}), {12u, 2u, 7u});
  const net::aig_network original = base;
  uint32_t gates[3];
  uint64_t window_merges[3];
  const uint32_t supports[3] = {11u, 15u, 17u};
  for (int i = 0; i < 3; ++i) {
    net::aig_network aig = original;
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 128u;
    params.window_max_support = supports[i];
    params.window_scale_gates = 0u; // pin the limit exactly
    const auto stats = sweep::stp_sweep(aig, params);
    gates[i] = aig.num_gates();
    window_merges[i] = stats.window_merges;
    EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent)
        << "support " << supports[i];
  }
  EXPECT_EQ(gates[0], gates[1]);
  EXPECT_EQ(gates[1], gates[2]);
  // Wider windows resolve at least as many classes exhaustively.
  EXPECT_LE(window_merges[0], window_merges[2]);
}

TEST(Sweep, NamedSuiteSmoke)
{
  // One small named Table II benchmark end to end.
  auto aig = gen::make_sweep_benchmark("6s20");
  const net::aig_network original = aig;
  const uint32_t before = aig.num_gates();
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  sweep::stp_sweep(aig, params);
  EXPECT_LT(aig.num_gates(), before);
  EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent);
}

} // namespace
