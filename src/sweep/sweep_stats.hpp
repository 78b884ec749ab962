/// \file sweep_stats.hpp
/// \brief Counters shared by both sweepers — the columns of Table II.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace stps::sat {
class cnf_manager;
} // namespace stps::sat

namespace stps::sweep {

/// The clock every sweep phase timer reads.
using sweep_clock = std::chrono::steady_clock;

/// Seconds elapsed on sweep_clock since \p start.
inline double seconds_since(sweep_clock::time_point start)
{
  return std::chrono::duration<double>(sweep_clock::now() - start).count();
}

/// How a sweep ended (sweep/resource_governor.hpp).  Anything other
/// than `complete` means the sweep wound down early — the returned
/// network is still a *sound partial result* (only proven merges were
/// applied; the abort precedence is cancelled > deadline > budget).
enum class sweep_outcome : uint8_t
{
  complete = 0,  ///< ran to the end (including an ungoverned sweep)
  deadline = 1,  ///< wall-clock (or virtual-clock) deadline expired
  budget = 2,    ///< global conflict pool exhausted
  cancelled = 3, ///< stop token tripped (SIGINT / cancel_after_queries)
};

/// Stable name for logs/JSON ("complete", "deadline", "budget",
/// "cancelled").
constexpr const char* sweep_outcome_name(sweep_outcome outcome) noexcept
{
  switch (outcome) {
    case sweep_outcome::deadline: return "deadline";
    case sweep_outcome::budget: return "budget";
    case sweep_outcome::cancelled: return "cancelled";
    default: return "complete";
  }
}

struct sweep_stats
{
  uint32_t gates_before = 0;  ///< "Gate"
  uint32_t gates_after = 0;   ///< "Result"
  uint32_t levels_before = 0; ///< "Lev"

  uint64_t sat_calls_satisfiable = 0; ///< "SAT calls" (CE-producing)
  uint64_t sat_calls_total = 0;       ///< "Total SAT calls"

  /// \name Guided prologue (Alg. 2 lines 2-3, sat_patterns.hpp)
  /// Its queries are part of `sat_calls_total`; its satisfiable ones are
  /// *not* in `sat_calls_satisfiable`, which counts the candidate loop's
  /// counter-examples only.
  /// \{
  uint64_t prologue_sat_calls = 0;
  uint64_t prologue_satisfiable_calls = 0;
  double prologue_seconds = 0.0; ///< wall clock on the calling thread
  /// \}

  uint64_t merges = 0;           ///< proven-equivalent substitutions
  uint64_t constant_merges = 0;  ///< constants propagated
  uint64_t window_merges = 0;    ///< merges proven by exhaustive windows
  uint64_t dont_touch = 0;       ///< unDET candidates given up for good
  uint64_t ce_patterns = 0;      ///< counter-examples simulated

  /// \name Budgeted / interruptible sweeping (resource governor + retry)
  /// \{
  /// How the sweep ended; `complete` unless a governor aborted it.
  sweep_outcome outcome = sweep_outcome::complete;
  /// Retry attempts issued by the escalating unDET queue — one per
  /// (deferred candidate, retry round) pair actually re-queried.
  uint64_t undet_retries = 0;
  /// Deferred candidates the retry rounds settled without a final
  /// `dont_touch` (proven, refined away, or split off its class).
  uint64_t undet_resolved = 0;
  /// \}

  /// \name Incremental-CNF counters (cnf_manager)
  /// \{
  uint64_t sat_nodes_encoded = 0;  ///< AND nodes Tseitin-encoded, all epochs
  uint64_t sat_solver_rebuilds = 0; ///< garbage epochs / per-query rebuilds
  uint64_t sat_clauses_peak = 0;   ///< max problem+learnt clauses seen
  /// \}

  /// \name SAT search-effort counters (accumulated across all rebuilds)
  /// The satisfiable-call *cost* trajectory: satisfiable equivalence
  /// queries dominate the SAT-bound tail, and the signature-phase /
  /// cone-scoping policies aim squarely at their conflict counts.
  /// \{
  uint64_t sat_conflicts = 0;
  uint64_t sat_decisions = 0;
  /// Trail literals propagated (solve, level-0 and inprocessing alike);
  /// scope-gated propagation aims at this one.
  uint64_t sat_propagations = 0;
  uint64_t sat_restarts = 0;
  /// Solver variables whose saved polarity was seeded from a signature
  /// word at encode time (0 when `use_signature_phase` is off or for
  /// sweepers without the policy).
  uint64_t phase_seed_words = 0;
  /// \}

  /// \name Clause-database policy counters (solver_stats, all rebuilds)
  /// The memory-pressure trajectory: reduce_db + inprocessing keep the
  /// long-lived incremental database lean *between* garbage epochs, so
  /// `sat_clauses_peak` stops riding the clause budget on query-heavy
  /// rows.
  /// \{
  uint64_t sat_learnts_reduced = 0; ///< learnts deleted by reduce_db
  uint64_t sat_lbd_sum = 0;         ///< Σ learn-time LBD (avg = /learnts)
  uint64_t sat_binary_clauses = 0;  ///< clauses routed to the binary graph
  uint64_t sat_lits_collapsed = 0;  ///< vars eliminated by equiv collapsing
  uint64_t sat_clauses_subsumed = 0; ///< clauses deleted by subsumption
  double sat_inprocess_seconds = 0.0; ///< wall-clock spent inprocessing
  /// \}

  /// \name Parallel SAT phase (stp_sweep_params::threads / sat_shards)
  /// \{
  uint32_t threads = 1;      ///< requested worker threads
  uint32_t sat_shards = 1;   ///< effective shard count of the SAT phase
  uint32_t workers_used = 1; ///< threads that actually ran shards
  /// Per-worker SAT time (size = workers_used; worker w summed over the
  /// shards it ran) in the candidate loop.  The guided prologue is never
  /// included, even when it runs sharded on the same workers, so
  /// single-thread and sharded rows read alike.
  std::vector<double> worker_sat_seconds;
  /// Counter-example column bytes (sim::open_word, one word per node
  /// id), summed over the shards.
  uint64_t store_peak_bytes = 0;
  /// \}

  double sim_seconds = 0.0;   ///< "Simulation" (initial + CE)
  double sat_seconds = 0.0;
  double total_seconds = 0.0; ///< "Total runtime"
};

/// Which engine objects of the bench JSON (bench/table2_sweeping.cpp)
/// carry a counter.
enum class counter_scope : uint8_t
{
  all,      ///< every engine object, fraig and STP alike
  stp,      ///< STP sweeper only: present when `worker_sat_seconds` is set
  internal, ///< kept in sweep_stats, not emitted per engine
};

/// The one list of sweep_stats counters, in bench-JSON key order: calls
/// `fn(name, &sweep_stats::field, scope)` once per counter.  The shard
/// merge (`add_counters`), the JSON emitter and the determinism tests
/// all iterate it, so a new counter is one line here.
///
/// SAT counters of a sharded sweep are sums over per-shard managers
/// (learnt-clause state is per manager), and `*_seconds` are CPU sums
/// over the shards next to a wall-clock `total_seconds`.
template <typename Fn>
constexpr void for_each_counter(Fn&& fn)
{
  using s = sweep_stats;
  using enum counter_scope;
  fn("sat_calls_total", &s::sat_calls_total, all);
  fn("sat_calls_satisfiable", &s::sat_calls_satisfiable, all);
  fn("prologue_sat_calls", &s::prologue_sat_calls, all);
  fn("prologue_satisfiable_calls", &s::prologue_satisfiable_calls, all);
  fn("merges", &s::merges, all);
  fn("dont_touch", &s::dont_touch, all);
  fn("undet_retries", &s::undet_retries, all);
  fn("undet_resolved", &s::undet_resolved, all);
  fn("sweep_outcome", &s::outcome, all);
  fn("sat_nodes_encoded", &s::sat_nodes_encoded, all);
  fn("sat_solver_rebuilds", &s::sat_solver_rebuilds, all);
  fn("sat_clauses_peak", &s::sat_clauses_peak, all);
  fn("sat_conflicts", &s::sat_conflicts, all);
  fn("sat_decisions", &s::sat_decisions, all);
  fn("sat_propagations", &s::sat_propagations, all);
  fn("sat_restarts", &s::sat_restarts, all);
  fn("sat_learnts_reduced", &s::sat_learnts_reduced, all);
  fn("sat_lbd_sum", &s::sat_lbd_sum, all);
  fn("sat_binary_clauses", &s::sat_binary_clauses, all);
  fn("sat_lits_collapsed", &s::sat_lits_collapsed, all);
  fn("sat_clauses_subsumed", &s::sat_clauses_subsumed, all);
  fn("sat_inprocess_seconds", &s::sat_inprocess_seconds, all);
  fn("phase_seed_words", &s::phase_seed_words, stp);
  fn("threads", &s::threads, stp);
  fn("sat_shards", &s::sat_shards, stp);
  fn("workers_used", &s::workers_used, stp);
  fn("worker_sat_seconds", &s::worker_sat_seconds, stp);
  fn("store_peak_bytes", &s::store_peak_bytes, stp);
  fn("sim_seconds", &s::sim_seconds, all);
  fn("sat_seconds", &s::sat_seconds, all);
  fn("prologue_seconds", &s::prologue_seconds, all);
  fn("total_seconds", &s::total_seconds, all);
  fn("constant_merges", &s::constant_merges, internal);
  fn("window_merges", &s::window_merges, internal);
  fn("ce_patterns", &s::ce_patterns, internal);
  fn("gates_before", &s::gates_before, internal);
  fn("gates_after", &s::gates_after, internal);
  fn("levels_before", &s::levels_before, internal);
}

/// Adds every 64-bit and floating counter of \p part into \p total (the
/// shard merge).  The 32-bit shape fields, the outcome and the
/// per-worker seconds are left for the caller to set.
void add_counters(sweep_stats& total, const sweep_stats& part);

/// Writes \p cnf's encode and search counters into \p stats (assignment
/// semantics: one manager's whole life).
void fill_cnf_stats(sweep_stats& stats, const sat::cnf_manager& cnf);

} // namespace stps::sweep
