/// \file test_fault_injection.cpp
/// \brief Budgeted, interruptible sweeping under deterministic faults.
///
/// Three layers of coverage:
///
/// 1. `sweep::resource_governor` unit semantics — unlimited defaults,
///    the global conflict pool, the deterministic virtual clock, and
///    the cancelled > deadline > budget outcome precedence.
/// 2. Deterministic fault injection (`sat::fault_plan`): forced-unknown
///    answers on a fixed query schedule and forced garbage-epoch
///    rebuilds.  The first degrades results but never soundness; the
///    second must be *result-identical* — it moves work, not answers.
/// 3. Abort-anywhere sweeps: the virtual clock lands a deadline on
///    every phase of the sweep in turn, and `cancel_after_queries`
///    is a reproducible SIGINT stand-in.  Every partial result must be
///    CEC-equivalent to the original with the correct `sweep_outcome`.
///
/// Plus the escalating-unDET acceptance check: on real suite rows a
/// finite per-query budget with retry rounds must resolve strictly more
/// candidates (lower `dont_touch`) than the paper's single-shot
/// marking.
#include "gen/benchmarks.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sweep/cec.hpp"
#include "sweep/fraig.hpp"
#include "sweep/resource_governor.hpp"
#include "sweep/stp_sweeper.hpp"
#include "sweep_counters.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace stps;

net::aig_network faulty_test_circuit(uint64_t seed, uint32_t gates = 800u)
{
  const auto base = gen::make_random_logic({12u, 10u, gates, seed, 25u});
  return gen::inject_redundancy(base, {8u, 4u, seed});
}

// ---------------------------------------------------------------------
// Governor unit semantics
// ---------------------------------------------------------------------

TEST(ResourceGovernor, DefaultsAreUnlimited)
{
  sweep::resource_governor g;
  EXPECT_FALSE(g.should_stop());
  EXPECT_FALSE(g.consume_conflicts(1'000'000u));
  g.on_query_begin();
  EXPECT_FALSE(g.should_stop());
  EXPECT_EQ(g.outcome(), sweep::sweep_outcome::complete);
  g.request_stop();
  EXPECT_TRUE(g.should_stop());
  EXPECT_EQ(g.outcome(), sweep::sweep_outcome::cancelled);
}

TEST(ResourceGovernor, GlobalConflictPool)
{
  sweep::governor_limits limits;
  limits.conflict_budget_total = 100u;
  sweep::resource_governor g{limits};
  // The solver reports in resource_check_interval-sized chunks; the
  // pool trips at the first report reaching the total.
  EXPECT_FALSE(g.consume_conflicts(64u));
  EXPECT_TRUE(g.consume_conflicts(64u)); // 128 >= 100
  EXPECT_TRUE(g.budget_exhausted());
  EXPECT_EQ(g.conflicts_used(), 128u);
  EXPECT_EQ(g.outcome(), sweep::sweep_outcome::budget);
}

TEST(ResourceGovernor, VirtualClockDeadlineIsDeterministic)
{
  sweep::governor_limits limits;
  limits.deadline_seconds = 3.0;
  limits.virtual_clock = true;
  limits.virtual_seconds_per_query = 1.0;
  sweep::resource_governor g{limits};
  g.on_query_begin();
  g.on_query_begin();
  EXPECT_DOUBLE_EQ(g.elapsed_seconds(), 2.0);
  EXPECT_FALSE(g.deadline_expired());
  g.on_query_begin(); // exactly the deadline
  EXPECT_TRUE(g.deadline_expired());
  EXPECT_TRUE(g.should_stop());
  EXPECT_EQ(g.outcome(), sweep::sweep_outcome::deadline);
  // Explicit advances compose with query ticks.
  sweep::resource_governor h{limits};
  h.advance_virtual(2.5);
  EXPECT_FALSE(h.deadline_expired());
  h.on_query_begin();
  EXPECT_TRUE(h.deadline_expired());
}

TEST(ResourceGovernor, OutcomePrecedenceCancelledOverDeadlineOverBudget)
{
  sweep::governor_limits limits;
  limits.deadline_seconds = 1.0;
  limits.conflict_budget_total = 1u;
  limits.virtual_clock = true;
  sweep::resource_governor g{limits};
  g.consume_conflicts(64u); // budget exhausted
  EXPECT_EQ(g.outcome(), sweep::sweep_outcome::budget);
  g.on_query_begin(); // virtual clock passes the deadline too
  EXPECT_TRUE(g.deadline_expired());
  EXPECT_EQ(g.outcome(), sweep::sweep_outcome::deadline);
  g.request_stop(); // explicit cancellation wins over everything
  EXPECT_EQ(g.outcome(), sweep::sweep_outcome::cancelled);
}

TEST(ResourceGovernor, CancelAfterQueriesTripsExactly)
{
  sweep::governor_limits limits;
  limits.cancel_after_queries = 3u;
  sweep::resource_governor g{limits};
  g.on_query_begin();
  g.on_query_begin();
  EXPECT_FALSE(g.stop_requested());
  g.on_query_begin();
  EXPECT_TRUE(g.stop_requested());
  EXPECT_EQ(g.queries_seen(), 3u);
  EXPECT_EQ(g.outcome(), sweep::sweep_outcome::cancelled);
}

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

TEST(FaultInjection, ForcedUnknownSweepStaysSound)
{
  // Forced-unknown equivalence answers starve the sweep of merges but
  // must never corrupt it: whatever was proven is applied, everything
  // else stays.  unknown_every == 1 is the worst case (every pairwise
  // query refused; only guided constants and windows still merge).
  for (const uint32_t every : {1u, 3u}) {
    auto aig = faulty_test_circuit(7u);
    const net::aig_network original = aig;
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 256u;
    // Windows resolve small classes without SAT; a zero-leaf window
    // fits no class, so the pairwise candidates actually reach the
    // faulted query path.
    params.window_max_support = 0u;
    params.window_scale_gates = 0u;
    params.faults.unknown_every = every;
    const auto stats = sweep::stp_sweep(aig, params);
    EXPECT_EQ(stats.outcome, sweep::sweep_outcome::complete);
    EXPECT_EQ(stats.window_merges, 0u);
    if (every == 1u) {
      // Every equivalence query was refused: each surviving candidate
      // was marked unDET, none merged by SAT.
      EXPECT_GT(stats.dont_touch, 0u);
      EXPECT_EQ(stats.sat_calls_satisfiable, 0u);
    }
    EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent)
        << "unknown_every " << every;
  }
}

TEST(FaultInjection, ForcedUnknownSeededScheduleIsDeterministic)
{
  // A nonzero seed draws the schedule from a per-query xorshift instead
  // of the exact k-th counter; two runs with the same seed must agree
  // on every counter, two different seeds may not.
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.faults.unknown_every = 4u;
  params.faults.seed = 0xabcdu;
  auto a = faulty_test_circuit(11u);
  auto b = faulty_test_circuit(11u);
  const net::aig_network original = a;
  const auto sa = sweep::stp_sweep(a, params);
  const auto sb = sweep::stp_sweep(b, params);
  EXPECT_EQ(test::deterministic_counters(sa),
            test::deterministic_counters(sb));
  EXPECT_EQ(a.num_gates(), b.num_gates());
  EXPECT_TRUE(sweep::check_equivalence(original, a).equivalent);
}

TEST(FaultInjection, ForcedRebuildIsResultIdentical)
{
  // A garbage-epoch rebuild on every 3rd query moves encode work (live
  // cones re-encode lazily) but may not change any answer: identical
  // result network, and the rebuild counter proves the fault fired.
  auto clean = faulty_test_circuit(13u);
  auto faulty = clean;
  const net::aig_network original = clean;
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  const auto clean_stats = sweep::stp_sweep(clean, params);
  params.faults.rebuild_every = 3u;
  const auto fault_stats = sweep::stp_sweep(faulty, params);
  EXPECT_GT(fault_stats.sat_solver_rebuilds,
            clean_stats.sat_solver_rebuilds);
  EXPECT_EQ(clean.num_gates(), faulty.num_gates());
  EXPECT_TRUE(sweep::check_equivalence(original, faulty).equivalent);
}

// ---------------------------------------------------------------------
// Abort-anywhere partial results
// ---------------------------------------------------------------------

TEST(FaultInjection, DeadlineAtEveryPhaseYieldsSoundPartials)
{
  // The virtual clock makes deadline expiry land on an exact query
  // index, so sweeping the deadline over [1, completion) aborts the
  // sweep inside every phase it passes through — guided pattern
  // generation, the candidate loop, and the retry rounds — and each
  // partial network must be CEC-equivalent with outcome `deadline`.
  const net::aig_network original = faulty_test_circuit(19u, 600u);
  uint64_t completed_runs = 0;
  uint64_t aborted_runs = 0;
  for (const double deadline :
       {1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0, 144.0,
        1e9}) {
    net::aig_network aig = original;
    sweep::governor_limits limits;
    limits.deadline_seconds = deadline;
    limits.virtual_clock = true;
    limits.virtual_seconds_per_query = 1.0; // deadline == query index
    sweep::resource_governor governor{limits};
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 256u;
    params.conflict_budget = 20; // unDETs feed the retry-round phase
    params.governor = &governor;
    const auto stats = sweep::stp_sweep(aig, params);
    if (stats.outcome == sweep::sweep_outcome::complete) {
      ++completed_runs;
    } else {
      ++aborted_runs;
      EXPECT_EQ(stats.outcome, sweep::sweep_outcome::deadline)
          << "deadline " << deadline;
    }
    EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent)
        << "partial result unsound at deadline " << deadline;
  }
  // The sweep really was cut short somewhere and really can finish.
  EXPECT_GT(aborted_runs, 0u);
  EXPECT_GT(completed_runs, 0u);
}

TEST(FaultInjection, MidSweepCancellationKeepsProvenMerges)
{
  // cancel_after_queries is the deterministic SIGINT stand-in: the
  // governor trips its own stop token at the k-th query tick.
  const net::aig_network original = faulty_test_circuit(23u, 600u);
  uint32_t gates_at_cancel1 = 0;
  for (const uint64_t cancel_at : {1u, 40u, 400u}) {
    net::aig_network aig = original;
    sweep::governor_limits limits;
    limits.cancel_after_queries = cancel_at;
    sweep::resource_governor governor{limits};
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 256u;
    params.governor = &governor;
    const auto stats = sweep::stp_sweep(aig, params);
    if (stats.outcome != sweep::sweep_outcome::complete) {
      EXPECT_EQ(stats.outcome, sweep::sweep_outcome::cancelled)
          << "cancel_after_queries " << cancel_at;
    }
    EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent)
        << "cancel_after_queries " << cancel_at;
    if (cancel_at == 1u) {
      gates_at_cancel1 = aig.num_gates();
      EXPECT_EQ(stats.outcome, sweep::sweep_outcome::cancelled);
    }
  }
  // A later cancellation had time to prove more merges than an
  // immediate one (the partial result is monotone in progress).
  net::aig_network full = original;
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  sweep::stp_sweep(full, params);
  EXPECT_LE(full.num_gates(), gates_at_cancel1);
}

TEST(FaultInjection, GlobalConflictPoolAbortIsSoundWithBudgetOutcome)
{
  const net::aig_network original = faulty_test_circuit(29u, 900u);
  net::aig_network aig = original;
  sweep::governor_limits limits;
  limits.conflict_budget_total = 30u; // a handful of real queries
  sweep::resource_governor governor{limits};
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.governor = &governor;
  const auto stats = sweep::stp_sweep(aig, params);
  if (stats.outcome != sweep::sweep_outcome::complete) {
    EXPECT_EQ(stats.outcome, sweep::sweep_outcome::budget);
    EXPECT_GE(governor.conflicts_used(), limits.conflict_budget_total);
  }
  EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent);
}

TEST(FaultInjection, FraigHonorsGovernorAndFaults)
{
  // The baseline engine shares the whole governance/fault layer.
  const net::aig_network original = faulty_test_circuit(31u, 600u);
  {
    net::aig_network aig = original;
    sweep::governor_limits limits;
    limits.cancel_after_queries = 30u;
    sweep::resource_governor governor{limits};
    sweep::fraig_params params{256u, 1u, -1};
    params.governor = &governor;
    const auto stats = sweep::fraig_sweep(aig, params);
    if (stats.outcome != sweep::sweep_outcome::complete) {
      EXPECT_EQ(stats.outcome, sweep::sweep_outcome::cancelled);
    }
    EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent);
  }
  {
    net::aig_network aig = original;
    sweep::fraig_params params{256u, 1u, -1};
    params.faults.unknown_every = 2u;
    const auto stats = sweep::fraig_sweep(aig, params);
    EXPECT_EQ(stats.outcome, sweep::sweep_outcome::complete);
    EXPECT_GT(stats.dont_touch, 0u);
    EXPECT_TRUE(sweep::check_equivalence(original, aig).equivalent);
  }
}

// ---------------------------------------------------------------------
// Escalating unDET retry: the acceptance check
// ---------------------------------------------------------------------

TEST(FaultInjection, EscalatingRetryLowersDontTouchOnSuiteRows)
{
  // Under a finite per-query budget the paper's single-shot marking
  // writes off every timed-out candidate; the escalating retry queue
  // re-queries them with doubled budgets and must resolve a strictly
  // positive fraction on real Table II rows (several rows, not a
  // hand-picked one).
  const char* rows[] = {"beemfwt4b1", "oski2b1i", "6s342rb122",
                        "beemfwt5b3", "6s20",     "b18"};
  uint32_t strictly_lower = 0;
  for (const char* row : rows) {
    const net::aig_network original = gen::make_sweep_benchmark(row);

    sweep::stp_sweep_params single;
    single.guided.base_patterns = 256u;
    single.conflict_budget = 2; // tight enough that real queries time out
    single.undet_retry_rounds = 0u; // the paper's behavior
    sweep::stp_sweep_params retry = single;
    retry.undet_retry_rounds = 3u;
    retry.undet_budget_factor = 2u;

    net::aig_network by_single = original;
    const auto ss = sweep::stp_sweep(by_single, single);
    net::aig_network by_retry = original;
    const auto rs = sweep::stp_sweep(by_retry, retry);

    EXPECT_EQ(ss.undet_retries, 0u) << row;
    EXPECT_LE(rs.dont_touch, ss.dont_touch) << row;
    if (rs.dont_touch < ss.dont_touch) {
      ++strictly_lower;
      EXPECT_GT(rs.undet_retries, 0u) << row;
      EXPECT_GT(rs.undet_resolved, 0u) << row;
    }
    EXPECT_LE(by_retry.num_gates(), by_single.num_gates()) << row;
    EXPECT_TRUE(sweep::check_equivalence(original, by_retry).equivalent)
        << row;
    EXPECT_TRUE(sweep::check_equivalence(original, by_single).equivalent)
        << row;
  }
  // The acceptance bar: measurably lower dont_touch on >= 3 rows.
  EXPECT_GE(strictly_lower, 3u);
}

TEST(FaultInjection, UnlimitedBudgetIgnoresRetryKnobs)
{
  // With an unlimited per-query budget nothing can defer, so the retry
  // knobs must be inert: identical counters with rounds 0 and 3.
  auto a = faulty_test_circuit(37u, 500u);
  auto b = a;
  sweep::stp_sweep_params p0;
  p0.guided.base_patterns = 256u;
  p0.undet_retry_rounds = 0u;
  sweep::stp_sweep_params p3 = p0;
  p3.undet_retry_rounds = 3u;
  const auto s0 = sweep::stp_sweep(a, p0);
  const auto s3 = sweep::stp_sweep(b, p3);
  EXPECT_EQ(test::deterministic_counters(s0),
            test::deterministic_counters(s3));
  EXPECT_EQ(s0.undet_retries, 0u);
  EXPECT_EQ(a.num_gates(), b.num_gates());
}

} // namespace
