/// \file test_differential.cpp
/// \brief Randomized differential harness across the sweepers and the
/// STP sweeper's ablation flags.
///
/// Generates seeded networks from every `src/gen` family (layered random
/// logic, arithmetic, and redundancy-injected variants of both) and runs
/// the fraig baseline plus the STP sweeper under six ablation variants
/// crossing the incremental-CNF × signature-guided-SAT × clause-database
/// policy flags:
///
///   | variant      | incremental CNF | clause budget  | phase | cone |
///   |--------------|-----------------|----------------|-------|------|
///   | default      | on              | default        | on    | on   |
///   | scratch      | off (per-query) | —              | off   | on   |
///   | tiny_epochs  | on              | 64 (rebuilds!) | on    | on*  |
///   | unbounded    | on              | 0 (never)      | off   | off  |
///   | unscoped     | on              | default        | on    | off  |
///   | scratch_bare | off             | —              | off   | off  |
///
/// (* tiny_epochs is the combination that exercises the learned
/// phase/activity carry-over across garbage epochs.)
///
/// Every result must be CEC-equivalent to the original, and all six STP
/// variants must agree exactly on the result gate count — the flags may
/// only change *when and where* work is paid (encode time, clause
/// memory), never *what* is computed.
#include "gen/arithmetic.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sweep/cec.hpp"
#include "sweep/fraig.hpp"
#include "sweep/stp_sweeper.hpp"
#include "sweep_counters.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace stps;

net::aig_network make_network(uint64_t seed)
{
  // Cycle through the generator families; sizes stay small enough for
  // ~50 networks x 6 flag variants (plus CEC) to run in test time,
  // including under sanitizers.
  const uint64_t family = seed % 5u;
  net::aig_network base;
  switch (family) {
    case 0u:
      base = gen::make_random_logic(
          {8u + static_cast<uint32_t>(seed % 7u), 6u,
           220u + 40u * static_cast<uint32_t>(seed % 4u), 0xd1ffu + seed,
           25u});
      break;
    case 1u:
      base = gen::make_adder(6u + static_cast<uint32_t>(seed % 6u));
      break;
    case 2u:
      base = gen::make_multiplier(5u + static_cast<uint32_t>(seed % 4u));
      break;
    case 3u:
      base = gen::make_barrel_shifter(3u + static_cast<uint32_t>(seed % 2u));
      break;
    default:
      base = gen::make_random_logic({12u, 10u, 320u, 0xfaceu + seed, 45u});
      break;
  }
  // Redundancy (equivalent pairs, hidden constants, false candidates)
  // is what gives the sweepers real work; vary the density with the
  // seed and leave a few networks redundancy-free.
  if (seed % 4u != 3u) {
    base = gen::inject_redundancy(
        base, {4u + static_cast<uint32_t>(seed % 9u),
               static_cast<uint32_t>(seed % 4u), 0xbadccafeu + seed,
               8u + static_cast<uint32_t>(seed % 16u)});
  }
  return base;
}

struct stp_variant
{
  const char* name;
  bool incremental;
  uint64_t clause_budget;
  bool signature_phase;
  bool cone_scoped;
  /// Clause-database policy columns, folded into the existing variants
  /// so the matrix stays 6 sweeps: reduce_db on/off,
  /// inprocessing on/off, and an aggressive inprocessing interval so
  /// the collapse/subsume/vivify phases actually fire on these small
  /// instances (the production interval of 2048 queries would never
  /// trigger here).
  bool sat_reduce;
  bool sat_inprocess;
  uint64_t inprocess_interval;
};

constexpr stp_variant variants[] = {
    {"default", true, 4'000'000u, true, true, true, true, 64u},
    {"scratch", false, 0u, false, true, false, false, 0u},
    {"tiny_epochs", true, 64u, true, true, true, true, 16u},
    {"unbounded", true, 0u, false, false, false, true, 32u},
    {"unscoped", true, 4'000'000u, true, false, true, false, 0u},
    {"scratch_bare", false, 0u, false, false, false, false, 0u},
};

sweep::stp_sweep_params make_params(const stp_variant& v)
{
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.use_incremental_cnf = v.incremental;
  params.sat_clause_budget = v.clause_budget;
  params.use_signature_phase = v.signature_phase;
  params.use_cone_scoped_decisions = v.cone_scoped;
  params.sat_reduce = v.sat_reduce;
  params.sat_inprocess = v.sat_inprocess;
  if (v.inprocess_interval != 0u) {
    params.sat_inprocess_interval = v.inprocess_interval;
    params.sat_inprocess_min_clauses = 64u; // fire on tiny databases too
  }
  return params;
}

class Differential : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Differential, AblationsAgree)
{
  const uint64_t seed = GetParam();
  const net::aig_network original = make_network(seed);

  net::aig_network by_fraig = original;
  sweep::fraig_sweep(by_fraig, {256u, seed + 1u, -1});
  ASSERT_TRUE(sweep::check_equivalence(original, by_fraig).equivalent)
      << "fraig not equivalent, seed " << seed;

  std::vector<net::aig_network> results;
  std::vector<sweep::sweep_stats> stats;
  for (const stp_variant& v : variants) {
    net::aig_network result = original;
    stats.push_back(sweep::stp_sweep(result, make_params(v)));
    ASSERT_TRUE(sweep::check_equivalence(original, result).equivalent)
        << "stp/" << v.name << " not equivalent, seed " << seed;
    results.push_back(std::move(result));
  }

  // All ablation variants compute the same result network size; the
  // flags only move work around.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].num_gates(), results[0].num_gates())
        << "stp/" << variants[i].name << " diverged from stp/"
        << variants[0].name << ", seed " << seed;
  }
  // Pairwise closure: spot the most different pipelines directly —
  // fraig vs default, scratch vs scratch_bare; the rest follows from
  // equivalence to `original`, checked above.
  EXPECT_TRUE(sweep::check_equivalence(by_fraig, results[0]).equivalent);
  EXPECT_TRUE(
      sweep::check_equivalence(results[1], results.back()).equivalent);

  // The ablation machinery really executed.  Per-query rebuilds in the
  // scratch variants, garbage epochs under the tiny clause budget, no
  // rebuilds when the budget is off.  A scratch manager rebuilds before
  // every query but its first, and the sweep runs two managers — the
  // prologue's and the shard's — so each one that posed a query saves
  // one rebuild.
  EXPECT_EQ(stats[0].sat_solver_rebuilds, 0u);
  EXPECT_EQ(stats[3].sat_solver_rebuilds, 0u);
  const uint64_t scratch_managers =
      (stats[1].prologue_sat_calls > 0u ? 1u : 0u) +
      (stats[1].sat_calls_total > stats[1].prologue_sat_calls ? 1u : 0u);
  EXPECT_EQ(stats[1].sat_solver_rebuilds,
            stats[1].sat_calls_total - scratch_managers);
  // clauses_peak is sampled at query entry, exactly where the budget
  // check runs: an entry above the budget is an entry that rebuilt.
  if (stats[2].sat_clauses_peak > 64u) {
    EXPECT_GT(stats[2].sat_solver_rebuilds, 0u);
  } else {
    EXPECT_EQ(stats[2].sat_solver_rebuilds, 0u);
  }
  EXPECT_GE(stats[1].sat_nodes_encoded, stats[0].sat_nodes_encoded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range(uint64_t{0}, uint64_t{50}));

/// Two full sweeps of the same generated network with the same seed and
/// parameters must agree on every machine-independent counter and on
/// the result network — byte-identical `sweep_stats` modulo the
/// wall-clock fields.  Any hidden iteration-order or uninitialized-memory
/// nondeterminism shows up here first.
TEST(Differential, SeededSweepsAreDeterministic)
{
  for (const uint64_t seed : {2u, 7u, 13u}) {
    net::aig_network first = make_network(seed);
    net::aig_network second = make_network(seed);
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 256u;
    const sweep::sweep_stats a = sweep::stp_sweep(first, params);
    const sweep::sweep_stats b = sweep::stp_sweep(second, params);

    EXPECT_EQ(first.num_gates(), second.num_gates());
    // Signature-phase seeding is on by default here: two seeded runs
    // must agree on every counter, the solver search included.
    EXPECT_EQ(test::deterministic_counters(a),
              test::deterministic_counters(b))
        << "seed " << seed;
    EXPECT_TRUE(sweep::check_equivalence(first, second).equivalent);
  }
}

/// The signature-guided SAT flag square on its own: 5 seeds × every
/// combination of `use_signature_phase` × `use_cone_scoped_decisions`
/// must land on the identical result network.  The per-push ASan CI job
/// runs exactly this slice (the full variant matrix above
/// stays in the release job and nightly).
TEST(Differential, SignaturePhaseAndConeScopingSlice)
{
  uint64_t seeded_total = 0; // across all seeds: the policy really ran
  for (const uint64_t seed : {3u, 11u, 19u, 27u, 35u}) {
    const net::aig_network original = make_network(seed);
    std::vector<net::aig_network> results;
    std::vector<sweep::sweep_stats> stats;
    for (const bool phase : {true, false}) {
      for (const bool cone : {true, false}) {
        net::aig_network result = original;
        sweep::stp_sweep_params params;
        params.guided.base_patterns = 256u;
        params.use_signature_phase = phase;
        params.use_cone_scoped_decisions = cone;
        stats.push_back(sweep::stp_sweep(result, params));
        ASSERT_TRUE(sweep::check_equivalence(original, result).equivalent)
            << "phase=" << phase << " cone=" << cone << ", seed " << seed;
        results.push_back(std::move(result));
      }
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].num_gates(), results[0].num_gates())
          << "flag combo " << i << " diverged, seed " << seed;
    }
    // The policies really toggled: seeds flow only when the flag is on
    // (a network swept without any SAT query seeds nothing — require
    // the evidence across the whole slice, not per seed).
    seeded_total += stats[0].phase_seed_words;
    EXPECT_EQ(stats[2].phase_seed_words, 0u);
    EXPECT_EQ(stats[3].phase_seed_words, 0u);
  }
  EXPECT_GT(seeded_total, 0u);
}

/// A sweep that produces enough counter-examples to cross several
/// 64-pattern word boundaries stays sound and keeps its counter-example
/// state in one column — one word per node id — however many arrive.
TEST(Differential, CounterExamplesCrossWordBoundaries)
{
  // Near-duplicates are false candidates only a counter-example can
  // split; with window resolution off and guided patterns off, each one
  // costs at least one CE — enough to cross several word boundaries.
  net::aig_network aig = gen::inject_redundancy(
      gen::make_random_logic({24u, 8u, 420u, 0xace5u, 35u}),
      {14u, 3u, 0xfeedu, 200u});
  const net::aig_network original = aig;
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 128u;
  params.use_guided_patterns = false; // keep signatures noisy: more CEs
  params.window_max_support = 0u; // a zero-leaf window fits no class
  params.window_scale_gates = 0u;
  const sweep::sweep_stats s = sweep::stp_sweep(aig, params);
  ASSERT_GT(s.ce_patterns, 128u) << "fixture no longer produces enough CEs";
  EXPECT_EQ(s.window_merges, 0u);
  EXPECT_EQ(s.sat_shards, 1u);
  EXPECT_EQ(s.store_peak_bytes, original.size() * sizeof(uint64_t));
  EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent);
}

/// Finite budgets and injected SAT-layer faults: a fifth differential
/// column family.  Tight per-query budgets (with and without the
/// escalating unDET retry), a forced-unknown schedule and forced
/// garbage-epoch rebuilds all degrade *effort* only — every result must
/// stay CEC-equivalent to the original, every un-governed sweep must
/// report `sweep_outcome::complete`, and the column that cannot change
/// answers (rebuild) must land on the
/// default column's exact result gate count.  This is the slice the
/// per-push ASan CI job runs.
TEST(Differential, FiniteBudgetAndInjectedFaultsStaySound)
{
  struct fault_column
  {
    const char* name;
    int64_t conflict_budget;
    uint32_t retry_rounds;
    uint32_t unknown_every;
    uint32_t rebuild_every;
    bool result_identical; ///< must match the default column's gates
  };
  constexpr fault_column columns[] = {
      {"default", -1, 3u, 0u, 0u, true},
      {"budget50_retry", 50, 3u, 0u, 0u, false},
      {"budget50_single", 50, 0u, 0u, 0u, false},
      {"fault_unknown", -1, 3u, 3u, 0u, false},
      {"fault_rebuild", -1, 3u, 0u, 7u, true},
  };
  for (const uint64_t seed : {1u, 6u, 12u, 18u, 23u, 31u, 37u, 42u, 44u,
                              49u}) {
    const net::aig_network original = make_network(seed);
    uint32_t default_gates = 0;
    for (const fault_column& c : columns) {
      net::aig_network result = original;
      sweep::stp_sweep_params params;
      params.guided.base_patterns = 256u;
      params.conflict_budget = c.conflict_budget;
      params.undet_retry_rounds = c.retry_rounds;
      params.faults.unknown_every = c.unknown_every;
      params.faults.rebuild_every = c.rebuild_every;
      const sweep::sweep_stats s = sweep::stp_sweep(result, params);
      EXPECT_EQ(s.outcome, sweep::sweep_outcome::complete)
          << c.name << ", seed " << seed;
      ASSERT_TRUE(sweep::check_equivalence(original, result).equivalent)
          << c.name << " not equivalent, seed " << seed;
      if (std::string{c.name} == "default") {
        default_gates = result.num_gates();
      } else if (c.result_identical) {
        EXPECT_EQ(result.num_gates(), default_gates)
            << c.name << " diverged, seed " << seed;
      } else {
        // Budget/forced-unknown columns may only *miss* merges.
        EXPECT_GE(result.num_gates(), default_gates)
            << c.name << ", seed " << seed;
      }
    }
    // The fraig baseline shares the budget + fault layer.
    net::aig_network by_fraig = original;
    sweep::fraig_params fparams{256u, seed + 1u, 50};
    fparams.faults.unknown_every = 5u;
    const sweep::sweep_stats fs = sweep::fraig_sweep(by_fraig, fparams);
    EXPECT_EQ(fs.outcome, sweep::sweep_outcome::complete);
    ASSERT_TRUE(sweep::check_equivalence(original, by_fraig).equivalent)
        << "fraig budget+fault not equivalent, seed " << seed;
  }
}

} // namespace
