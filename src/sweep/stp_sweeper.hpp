/// \file stp_sweeper.hpp
/// \brief The paper's STP-based SAT-sweeping framework (§IV, Algorithm 2).
///
/// Differences from the baseline FRAIG sweeper (fraig.hpp), exactly the
/// paper's contributions:
///
/// 1. **SAT-guided initial patterns** (§IV-A, two rounds): constants are
///    proven and propagated up front, and near-constant signatures are
///    diversified, so the initial equivalence classes contain far fewer
///    false candidates.  The rounds run sharded like the SAT phase:
///    each shard queries its own round-robin slice of the gates, and the
///    witnesses and constants merge in canonical order
///    (sweep::sharded_initial_patterns; one shard's slice is every gate).
/// 2. **Reverse topological candidate order** with complement-aware
///    generalized classes (Alg. 2 lines 4, 10-11).
/// 3. **TFI-bounded driver selection** (lines 12-17; limit n = 1000).
/// 4. **Exhaustive window resolution**: a class whose members' combined
///    support fits in a window (< 16 leaves) is resolved *exactly* by
///    word-parallel simulation of exhaustive patterns over the members'
///    *union* cone (one shared pass, no truth-table composition) —
///    remaining members are provably equivalent and merge without any
///    SAT call, and false members are split away without producing
///    counter-examples.
/// 5. **Counter-example simulation by whole-AIG resimulation**: the
///    paper re-simulates a CE on a k-LUT view collapsed with tree cuts
///    (§III-B).  Here each CE recomputes the open word for every node in
///    one id-order pass over a single column (sim::open_word), as
///    ABC's fraig does: the collapsed view gave identical results
///    without saving measurable simulation time (bench/README.md).  The
///    STP k-LUT simulator does the initial simulation.
/// 6. **unDET handling with escalating retry**: the paper marks a
///    budget-exhausted candidate don't-touch permanently (lines 19-21);
///    here an `unknown` verdict *defers* the candidate into a retry
///    queue instead.  After the main pass the queue is re-queried in up
///    to `undet_retry_rounds` rounds with the per-query budget
///    multiplied by `undet_budget_factor` each round — easy-but-unlucky
///    queries settle cheaply, genuinely hard ones still end as
///    `dont_touch` after the last round.  With an unlimited
///    `conflict_budget` (the default) no query can answer unknown and
///    the behavior is exactly the paper's.  A `resource_governor` can
///    additionally bound the whole sweep (deadline / global conflict
///    pool / cancellation); aborting applies only proven merges and
///    tags `sweep_stats::outcome`.
/// 7. **Batched counter-example refinement** (classic FRAIG batching):
///    CE bits are buffered into the open word's column by the
///    resimulation pass, and classes are re-partitioned lazily — the
///    current candidate's class when it needs the fresh bits to make
///    progress, any other class when the loop advances to it, and all
///    classes at once when the word fills with 64 CEs.  A refined full
///    word is never read again, so the next CE starts a fresh one in the
///    same column: CE memory is one word per node id for the whole
///    sweep.
/// 8. **Size-scaled budgets**: the initial pattern budget and the
///    round-2 guided-query budget scale with gate count (capped), so
///    small instances stop over-investing in simulation and guided SAT.
#pragma once

#include "network/aig.hpp"
#include "sweep/sat_patterns.hpp"
#include "sweep/sweep_stats.hpp"

#include <algorithm>
#include <cstdint>

namespace stps::sweep {

struct stp_sweep_params
{
  guided_pattern_config guided{};  ///< initial pattern generation
  bool use_guided_patterns = true; ///< ablation B: false = random only

  /// Ablation: false tears the SAT solver down before *every* query, so
  /// each query re-encodes its whole union cone from scratch — the
  /// output-insensitive baseline `sat_nodes_encoded` is measured
  /// against.  Results are identical either way (differential harness).
  bool use_incremental_cnf = true;
  /// Garbage epoch for the incremental CNF: when problem + learnt
  /// clauses exceed this at a query entry, the solver is rebuilt empty
  /// and live cones re-encode lazily.  Bounds SAT memory on ≥ 1M-gate
  /// sweeps; 0 = never rebuild.  Ignored when `use_incremental_cnf` is
  /// false (every query already starts empty).
  uint64_t sat_clause_budget = 4'000'000;

  /// Signature-guided SAT querying: solver variables' saved polarities
  /// are seeded from the nodes' values in the last initial-simulation
  /// signature word — one consistent whole-network assignment — at
  /// encode time, and *re-seeded per equivalence query* while the
  /// adaptive policy holds (sat::cnf_manager::params): re-seeding makes
  /// UNSAT-bound proof streams drastically cheaper (mult96r SAT time
  /// ~10×), and switches itself off once satisfiable answers become
  /// frequent enough that counter-example diversity matters more
  /// (deep-random instances; biased models are near-duplicates of the
  /// seed pattern and refine too little).  Seeding steers the search
  /// only; sat/unsat answers are unchanged (property-pinned), and the
  /// result network is identical either way (differential harness +
  /// bench `--ablation`).
  bool use_signature_phase = true;
  /// Cone-aware query scoping (sat::cnf_manager::params): decisions and
  /// activity bumps restricted to each query's union cone, and learned
  /// phase/activity carried across SAT garbage epochs for cones that
  /// re-encode.  false = unrestricted decisions, cold rebuilds.
  bool use_cone_scoped_decisions = true;
  /// Glue/activity-ranked learnt-clause reduction inside the solver
  /// (sat::solver_options::reduce_learnts).  false = learnts only leave
  /// via purges and garbage epochs — the epoch-only baseline the
  /// `sat_clauses_peak` delta is measured against (bench `--sat-reduce`).
  bool sat_reduce = true;
  /// Between-query inprocessing (sat/inprocess.hpp): equivalent-literal
  /// collapsing, budgeted backward subsumption, bounded vivification on
  /// the cnf_manager's deterministic query-interval schedule (bench
  /// `--sat-inprocess`).
  bool sat_inprocess = true;
  /// Inprocessing schedule (sat::cnf_manager::params): run every this
  /// many query entries per epoch, once the database holds at least
  /// `sat_inprocess_min_clauses` clauses.  The defaults match the
  /// manager's; tests shrink both to force the phases on instances far
  /// below production size.
  uint64_t sat_inprocess_interval = 2048;
  uint64_t sat_inprocess_min_clauses = 4096;

  int64_t conflict_budget = -1;  ///< equivalence queries; -1 = unlimited

  /// \name Parallel SAT phase (class-sharded)
  /// \{
  /// Worker threads for the guided prologue and the SAT phase.  The
  /// prologue's gates are split round-robin into
  /// `effective_sat_shards()` slices, each proven on a fresh
  /// thread-local manager and merged in shard order (the round-2 query
  /// budget is split evenly).  The candidate classes are then
  /// partitioned into the same number of shards and swept over the
  /// *frozen* AIG, recording proven merges instead of applying them;
  /// each shard starts another fresh manager with private copies of the
  /// classes and the open counter-example word.  Proven
  /// merges are then committed on the calling thread in deterministic
  /// canonical order (ascending node id).  The sweep *trajectory* is a
  /// pure function of the shard count — running 4 shards on 1 thread or
  /// on 4 threads is byte-identical in every counter and in the result
  /// network.  A single-thread sweep is the one-shard case of the same
  /// path: one slice holding every gate, then one shard owning every
  /// class, each on a manager of its own.
  uint32_t threads = 1;
  /// Shard count of the parallel phase; 0 = one shard per thread.
  /// Fixing `sat_shards` while varying `threads` reproduces identical
  /// sweeps at any parallelism (the determinism pin).
  uint32_t sat_shards = 0;

  uint32_t effective_sat_shards() const noexcept
  {
    const uint32_t s = sat_shards == 0u ? threads : sat_shards;
    return s == 0u ? 1u : s;
  }
  /// \}

  /// \name Budgeted, interruptible sweeping
  /// \{
  /// Resource governor of the whole sweep job (non-owning; null =
  /// ungoverned).  Shared with the CNF layer, the CDCL loop, and guided
  /// pattern generation; when it trips, the in-flight query finishes
  /// (or winds down with `unknown`), only proven merges are applied,
  /// and the returned network is a sound partial result with
  /// `sweep_stats::outcome` naming the cause.
  resource_governor* governor = nullptr;
  /// Escalating unDET retry: rounds of re-querying deferred candidates
  /// after the main pass, each with the per-query budget multiplied by
  /// `undet_budget_factor`.  0 = the paper's single-shot marking.
  /// Irrelevant while `conflict_budget` is unlimited (nothing defers).
  uint32_t undet_retry_rounds = 3;
  uint32_t undet_budget_factor = 2;
  /// Deterministic fault injection for the SAT layer
  /// (sat::fault_plan, forwarded to the cnf_manager); all-zero = off.
  sat::fault_plan faults{};
  /// \}

  std::size_t tfi_limit = 1000;  ///< Alg. 2 line 1
  uint32_t window_max_support = 15; ///< "< 16 leaves" (§IV-A)
  /// Scaled windowing: on paper-scale instances a satisfiable SAT call
  /// costs far more than a larger exhaustive window (window resolution
  /// is cheap since the union-cone pass), so the support limit grows
  /// with the gate count — one extra leaf per quadrupling starting at
  /// `window_scale_gates` gates, capped at `window_max_support_scaled`
  /// (30k gates → 16, 120k → 17, 480k → 18, 1.92M → 19 with the
  /// defaults; the 19-leaf tier exists for the --scale 4 workloads).
  /// Window resolution is exact, so the limit changes which merges
  /// avoid SAT, never the result.  `window_scale_gates = 0` disables
  /// scaling (the flat ablation baseline); with `window_max_support = 0`
  /// as well, no class fits a window and every candidate goes to SAT.
  uint32_t window_scale_gates = 30'000;
  uint32_t window_max_support_scaled = 19;

  /// Initial pattern count actually used for a circuit of
  /// \p num_gates gates.  Tiny instances stop over-investing in
  /// simulation: 250 patterns per 1000 gates, floored at 128, rounded up
  /// to a whole 64-pattern word, capped at `guided.base_patterns`.
  uint64_t effective_pattern_budget(uint64_t num_gates) const
  {
    uint64_t want = std::max<uint64_t>(num_gates * 250u / 1000u, 128u);
    want = (want + 63u) / 64u * 64u;
    return std::min(want, guided.base_patterns);
  }

  /// Round-2 guided-query budget (each query adds one pattern) for a
  /// circuit of \p num_gates gates: 16 per 1000 gates, floored at 32,
  /// capped at `guided.max_round2_queries`.  Small circuits have few
  /// false candidates to break up, and at a flat 512-query budget the
  /// guided SAT time exceeded what the extra patterns saved.
  std::size_t effective_round2_queries(uint64_t num_gates) const
  {
    const std::size_t want =
        std::max<std::size_t>(num_gates * 16u / 1000u, 32u);
    return std::min(want, guided.max_round2_queries);
  }

  /// Exhaustive-window support limit for a circuit of \p num_gates
  /// gates (scaled windowing; see `window_scale_gates`).
  uint32_t effective_window_support(uint64_t num_gates) const
  {
    uint32_t support = window_max_support;
    if (window_scale_gates == 0u) {
      return support;
    }
    for (uint64_t gates = window_scale_gates;
         num_gates >= gates && support < window_max_support_scaled;
         gates *= 4u) {
      ++support;
    }
    return support;
  }
};

/// Sweeps \p aig in place; returns the Table II counters.
sweep_stats stp_sweep(net::aig_network& aig, const stp_sweep_params& params);

} // namespace stps::sweep
