/// \file sweep_stats.hpp
/// \brief Counters shared by both sweepers — the columns of Table II.
#pragma once

#include <cstdint>
#include <vector>

namespace stps::sweep {

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

  /// \name Signature-store memory counters (candidate + resim stores)
  /// \{
  bool has_store_counters = false; ///< engine tracks a word budget
  uint64_t store_words_live = 0;    ///< words still backed at sweep end
  uint64_t store_words_trimmed = 0; ///< absorbed words whose storage was freed
  uint64_t store_peak_bytes = 0;    ///< sum of per-store peak footprints
  /// Pattern-set ring: CE words still backed / recycled into the ring.
  uint64_t pattern_words_live = 0;
  uint64_t pattern_words_recycled = 0;
  /// \}

  /// \name Parallel SAT phase (stp_sweep_params::threads / sat_shards)
  /// \{
  uint32_t threads = 1;      ///< requested worker threads
  uint32_t sat_shards = 1;   ///< effective shard count of the SAT phase
  uint32_t workers_used = 1; ///< threads that actually ran shards
  /// Per-worker SAT time (size = workers_used; worker w summed over the
  /// shards it ran).  The guided prologue runs before the shards and is
  /// never included, so single-thread and sharded rows read alike.
  std::vector<double> worker_sat_seconds;
  /// \}

  double sim_seconds = 0.0;   ///< "Simulation" (initial + CE)
  double sat_seconds = 0.0;
  double total_seconds = 0.0; ///< "Total runtime"
};

} // namespace stps::sweep
