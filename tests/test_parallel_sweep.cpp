/// \file test_parallel_sweep.cpp
/// \brief Determinism and soundness pins for the class-sharded parallel
/// SAT phase (stp_sweep_params::threads / sat_shards).
///
/// The contract under test, in order of importance:
///
/// 1. **Thread-count invariance** — at a fixed shard count the sweep is
///    a pure function of its inputs: threads = 1, 2, 4 must produce
///    byte-identical counters AND byte-identical result networks.
///    This is what makes parallel results trustworthy: scheduling can
///    never leak into the trajectory.
/// 2. **Sharded soundness** — any shard count yields a CEC-equivalent
///    network; sharding only defers merge application, never weakens
///    the proof discipline.  Sharded sweeps also land on the same
///    result-gate count as the single-thread path on redundancy-rich
///    instances (all true equivalences are proven either way when
///    budgets are unlimited).
/// 3. **Governed cancellation** fans out: one shared governor stops
///    every worker — in the sharded guided prologue as in the candidate
///    loop — and the partial result stays sound.
/// 4. **Sharded prologue soundness** — every constant a slice proves is
///    a real constant, and the merge lists them in ascending node id.
///    One shard's prologue is the serial one, bit for bit.
#include "gen/benchmarks.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"
#include "sim/bitwise_sim.hpp"
#include "sweep/cec.hpp"
#include "sweep/resource_governor.hpp"
#include "sweep/sat_patterns.hpp"
#include "sweep/stp_sweeper.hpp"
#include "sweep/worker_pool.hpp"
#include "sweep_counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace {

using namespace stps;

/// Structural fingerprint: fanin literals of every live gate in id
/// order plus the PO literals.  Two byte-identical sweeps must agree on
/// this exactly (not just on gate counts).
std::vector<uint32_t> fingerprint(const net::aig_network& aig)
{
  std::vector<uint32_t> fp;
  aig.foreach_gate([&](net::node n) {
    fp.push_back(n);
    fp.push_back(aig.fanin0(n).lit);
    fp.push_back(aig.fanin1(n).lit);
  });
  aig.foreach_po([&](net::signal f, uint32_t) { fp.push_back(f.lit); });
  return fp;
}

using test::counter_list;

net::aig_network test_instance(uint64_t seed)
{
  auto base = gen::make_random_logic(
      {20u, 12u, 900u + 60u * static_cast<uint32_t>(seed % 5u),
       0x9a11u + seed, 25u});
  return gen::inject_redundancy(base, {10u, 6u, 0x9a11u + seed, 40u});
}

TEST(ParallelSweep, ThreadCountNeverChangesTheResult)
{
  // The determinism pin: fixed shard count, varying thread count.
  // Every counter (including SAT search effort and the sharded
  // prologue's calls) and the full result network must be
  // byte-identical — scheduling must not exist as far as results are
  // concerned.
  for (const uint64_t seed : {0u, 1u, 2u}) {
    std::vector<counter_list> all_counters;
    std::vector<std::vector<uint32_t>> all_fps;
    for (const uint32_t threads : {1u, 2u, 4u}) {
      net::aig_network aig = test_instance(seed);
      sweep::stp_sweep_params params;
      params.guided.base_patterns = 256u;
      params.threads = threads;
      params.sat_shards = 4u; // fixed: the trajectory parameter
      const auto stats = sweep::stp_sweep(aig, params);
      EXPECT_EQ(stats.sat_shards, 4u);
      EXPECT_EQ(stats.threads, threads);
      EXPECT_EQ(stats.workers_used, std::min(threads, 4u));
      EXPECT_EQ(stats.worker_sat_seconds.size(), stats.workers_used);
      EXPECT_GT(stats.prologue_sat_calls, 0u);
      EXPECT_GT(stats.prologue_satisfiable_calls, 0u);
      counter_list flat = test::deterministic_counters(stats);
      // threads/workers_used legitimately differ across runs; compare
      // everything else.
      std::erase_if(flat, [](const auto& counter) {
        return counter.first == "threads" || counter.first == "workers_used";
      });
      all_counters.push_back(std::move(flat));
      all_fps.push_back(fingerprint(aig));
    }
    for (std::size_t i = 1; i < all_counters.size(); ++i) {
      EXPECT_EQ(all_counters[i], all_counters.front()) << "seed " << seed;
      EXPECT_EQ(all_fps[i], all_fps.front()) << "seed " << seed;
    }
  }
}

TEST(ParallelSweep, ShardedSweepsAreSoundAndReachTheSameSize)
{
  // Sharding changes the trajectory (per-shard solvers learn
  // independently) but never the proof discipline: any shard count is
  // CEC-equivalent, and with unlimited budgets every true equivalence
  // is proven, so the result-gate count matches single-thread.
  for (const uint64_t seed : {3u, 4u, 5u, 6u}) {
    const net::aig_network original = test_instance(seed);

    net::aig_network single = original;
    sweep::stp_sweep_params params;
    params.guided.base_patterns = 256u;
    const auto single_stats = sweep::stp_sweep(single, params);
    EXPECT_EQ(single_stats.sat_shards, 1u);
    EXPECT_EQ(single_stats.worker_sat_seconds.size(), 1u);

    for (const uint32_t shards : {2u, 4u}) {
      net::aig_network sharded = original;
      sweep::stp_sweep_params p = params;
      p.threads = 2u;
      p.sat_shards = shards;
      const auto stats = sweep::stp_sweep(sharded, p);
      EXPECT_EQ(stats.sat_shards, shards);
      const auto cec = sweep::check_equivalence(original, sharded);
      EXPECT_TRUE(cec.equivalent) << "seed " << seed << " shards " << shards;
      EXPECT_EQ(stats.gates_after, single_stats.gates_after)
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ParallelSweep, DefaultShardCountFollowsThreads)
{
  // sat_shards = 0 means one shard per thread.
  net::aig_network aig = test_instance(7u);
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.threads = 3u; // sat_shards stays 0
  EXPECT_EQ(params.effective_sat_shards(), 3u);
  const auto stats = sweep::stp_sweep(aig, params);
  EXPECT_EQ(stats.sat_shards, 3u);
  EXPECT_EQ(stats.workers_used, 3u);

  sweep::stp_sweep_params single;
  EXPECT_EQ(single.effective_sat_shards(), 1u);
  single.threads = 0u; // clamped
  EXPECT_EQ(single.effective_sat_shards(), 1u);
}

TEST(ParallelSweep, OneShardIsOneCodePath)
{
  // threads = 1 resolves to one shard whether sat_shards is 0 or 1, and
  // the single-thread sweep is that shard of the sharded path: both
  // settings give byte-identical counters and result networks.
  for (const uint64_t seed : {9u, 10u}) {
    std::vector<counter_list> all_counters;
    std::vector<std::vector<uint32_t>> all_fps;
    for (const uint32_t shards : {0u, 1u}) {
      net::aig_network aig = test_instance(seed);
      sweep::stp_sweep_params params;
      params.guided.base_patterns = 256u;
      params.sat_shards = shards;
      const auto stats = sweep::stp_sweep(aig, params);
      EXPECT_EQ(stats.sat_shards, 1u);
      EXPECT_EQ(stats.workers_used, 1u);
      all_counters.push_back(test::deterministic_counters(stats));
      all_fps.push_back(fingerprint(aig));
    }
    EXPECT_EQ(all_counters[0], all_counters[1]) << "seed " << seed;
    EXPECT_EQ(all_fps[0], all_fps[1]) << "seed " << seed;
  }
}

TEST(ParallelSweep, WorkerSatSecondsExcludeThePrologue)
{
  // worker_sat_seconds covers the shards only, on one shard as on many:
  // without the guided prologue it is all of sat_seconds, with it the
  // prologue's SAT time makes up the difference.
  const net::aig_network original = test_instance(11u);
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.use_guided_patterns = false;
  net::aig_network unguided = original;
  const auto without = sweep::stp_sweep(unguided, params);
  ASSERT_EQ(without.worker_sat_seconds.size(), 1u);
  EXPECT_EQ(without.worker_sat_seconds[0], without.sat_seconds);

  params.use_guided_patterns = true;
  net::aig_network guided = original;
  const auto with = sweep::stp_sweep(guided, params);
  ASSERT_EQ(with.worker_sat_seconds.size(), 1u);
  EXPECT_LT(with.worker_sat_seconds[0], with.sat_seconds);
}

TEST(ParallelSweep, SharedGovernorCancelsEveryWorker)
{
  // One governor, four workers: tripping the stop token mid-sweep winds
  // every shard down, the outcome is recorded, and the partial result
  // (only committed proven merges) stays CEC-equivalent.  Two trip
  // points: inside the sharded guided prologue (fewer query ticks than
  // it issues) and inside the candidate loop after it.
  const net::aig_network original = test_instance(8u);
  sweep::stp_sweep_params params;
  params.guided.base_patterns = 256u;
  params.threads = 4u;
  params.sat_shards = 4u;
  net::aig_network ungoverned = original;
  const auto full = sweep::stp_sweep(ungoverned, params);
  const uint64_t prologue = full.prologue_sat_calls;
  const uint64_t main_phase = full.sat_calls_total - prologue;
  ASSERT_GE(prologue, 8u);
  ASSERT_GE(main_phase, 8u);

  for (const bool in_prologue : {true, false}) {
    net::aig_network aig = original;
    sweep::governor_limits limits;
    limits.cancel_after_queries =
        in_prologue ? prologue / 2u : prologue + main_phase / 2u;
    sweep::resource_governor governor{limits};
    params.governor = &governor;
    const auto stats = sweep::stp_sweep(aig, params);
    EXPECT_EQ(stats.outcome, sweep::sweep_outcome::cancelled)
        << "in_prologue " << in_prologue;
    EXPECT_TRUE(governor.stop_requested());
    if (in_prologue) {
      EXPECT_LT(stats.prologue_sat_calls, prologue);
      EXPECT_EQ(stats.sat_calls_total, stats.prologue_sat_calls);
    } else {
      // The prologue ran to the end before the trip.
      EXPECT_EQ(stats.prologue_sat_calls, prologue);
      EXPECT_LT(stats.sat_calls_total, full.sat_calls_total);
    }
    const auto cec = sweep::check_equivalence(original, aig);
    EXPECT_TRUE(cec.equivalent) << "in_prologue " << in_prologue;
    EXPECT_LE(aig.num_gates(), original.num_gates());
  }
}

TEST(ParallelSweep, ShardedPrologueProvesOnlyRealConstants)
{
  // Every slice proves constants on its own manager; each one the merge
  // reports must be a real constant (simulation never toggles it, and
  // an independent solver proves it), and sweeps at that shard count
  // stay CEC-equivalent.  The instances plant hidden constants.  One
  // shard — the single-thread sweep's prologue — must return exactly
  // what the serial rounds return on a fresh manager.
  for (const uint64_t seed : {12u, 13u}) {
    const net::aig_network original = test_instance(seed);
    const sim::pattern_set probe =
        sim::pattern_set::random(original.num_pis(), 4096u, 0xc0ffeeu + seed);
    const sim::signature_store probe_sig = sim::simulate_aig(original, probe);
    for (const uint32_t shards : {1u, 2u, 3u, 4u}) {
      sweep::guided_pattern_config config;
      config.base_patterns = 256u;
      config.max_round2_queries = 32u;
      sweep::worker_pool pool{2u};
      sweep::sweep_stats counters;
      const auto result = sweep::sharded_guided_patterns(
          original, {}, config, shards, pool, counters);
      EXPECT_FALSE(result.proven_constants.empty())
          << "seed " << seed << " shards " << shards;
      EXPECT_TRUE(std::is_sorted(result.proven_constants.begin(),
                                 result.proven_constants.end()));
      EXPECT_EQ(result.patterns.num_patterns(),
                config.base_patterns + result.patterns_added);
      EXPECT_GT(counters.sat_nodes_encoded, 0u);
      if (shards == 1u) {
        sat::cnf_manager cnf{original};
        const auto serial = sweep::sat_guided_patterns(original, cnf, config);
        EXPECT_EQ(result.proven_constants, serial.proven_constants)
            << "seed " << seed;
        EXPECT_EQ(result.sat_calls, serial.sat_calls) << "seed " << seed;
        EXPECT_EQ(result.satisfiable_calls, serial.satisfiable_calls)
            << "seed " << seed;
        ASSERT_EQ(result.patterns.num_patterns(),
                  serial.patterns.num_patterns())
            << "seed " << seed;
        uint64_t differing_bits = 0;
        for (uint32_t i = 0; i < original.num_pis(); ++i) {
          for (uint64_t p = 0; p < result.patterns.num_patterns(); ++p) {
            differing_bits += result.patterns.bit(i, p) !=
                              serial.patterns.bit(i, p);
          }
        }
        EXPECT_EQ(differing_bits, 0u) << "seed " << seed;
      }
      for (const auto& [n, value] : result.proven_constants) {
        const uint64_t expect = value ? ~uint64_t{0} : 0u;
        for (std::size_t w = 0; w < probe_sig.num_words(); ++w) {
          ASSERT_EQ(probe_sig.word(n, w), expect)
              << "seed " << seed << " shards " << shards << " node " << n;
        }
        sat::solver solver;
        sat::aig_encoder encoder{original, solver};
        EXPECT_EQ(encoder.prove_constant(net::signal{n, false}, value, -1),
                  sat::result::unsat)
            << "seed " << seed << " shards " << shards << " node " << n;
      }

      net::aig_network swept = original;
      sweep::stp_sweep_params params;
      params.guided.base_patterns = 256u;
      params.threads = 2u;
      params.sat_shards = shards;
      const auto stats = sweep::stp_sweep(swept, params);
      EXPECT_GT(stats.prologue_sat_calls, 0u);
      EXPECT_GT(stats.constant_merges, 0u);
      EXPECT_TRUE(sweep::check_equivalence(original, swept).equivalent)
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ParallelSweep, ScaleFourNamesExist)
{
  // The scale-4 workload tier: names registered, clamp honest, and the
  // 500k-class instance actually reaches paper scale.  (rand2m's ≥1.92M
  // gates — the 19-leaf window tier — is asserted at bench time, not
  // here: building it takes longer than the whole unit suite.)
  const auto names = gen::sweep_names(4u);
  EXPECT_NE(std::find(names.begin(), names.end(), "mult200r"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "rand1m"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "rand2m"), names.end());
  EXPECT_EQ(gen::sweep_names(99u).size(), names.size()); // clamps
  EXPECT_EQ(gen::max_sweep_scale, 4u);

  const auto mult = gen::make_sweep_benchmark("mult200r");
  EXPECT_GE(mult.num_gates(), 450'000u);
  // The scale-4 tier must put rand2m in the 19-leaf window band.
  sweep::stp_sweep_params params;
  EXPECT_EQ(params.effective_window_support(1'950'000u), 19u);
}

} // namespace
