/// \file sat_patterns.hpp
/// \brief Two-round SAT-guided initial pattern generation (§IV-A).
///
/// Random patterns leave many gates looking constant or near-constant,
/// which bloats candidate equivalence classes with false members.  The
/// paper (following Amarù et al., DAC'20 [6]) generates additional
/// patterns with a SAT solver:
///
/// * **Round 1** — for every gate whose signature is all-zeros or
///   all-ones, ask SAT for an input assignment driving it to the other
///   value.  A satisfying assignment becomes a new pattern (the gate was
///   a false constant candidate); UNSAT *proves* the gate constant, and
///   it is reported for immediate constant propagation (Alg. 2 line 3).
/// * **Round 2** — for gates whose signature has only a few ones (or
///   zeros), ask SAT for assignments producing the minority value, so
///   signatures gain toggles and distinguish more class candidates.
///   The near-constant gates are grouped by complement-normalized
///   signature (prospective equivalence classes) and ranked by
///   minority-bit count, lowest first; each group gets *one* query.  On
///   deep random logic near-constant gates are strongly correlated, and
///   one query per gate burned a satisfiable call per member of a group
///   that any single witness diversifies whole.
///
/// The random base is simulated once; every witness is absorbed by a
/// sim::open_word over one sim::resim_plan (the AIG does not change
/// while the rounds run, so the plan taken at entry stays exact).  A
/// full open word is folded into a per-node running popcount and group
/// hash before the column is reused.
///
/// **Sharded prologue** (`sharded_guided_patterns`), the STP sweeper's
/// prologue at every shard count: gate i, counted in `foreach_gate`
/// order, belongs to slice i mod `shards`.  Each slice runs both rounds
/// on its own worker with its own fresh cnf_manager, its own simulation
/// of the frozen AIG and only its own witnesses; the round-2 budget is
/// split evenly (rounded up).  The calling thread then merges in
/// canonical order — the random base, slice 0's witnesses, slice 1's, …
/// — and substitutes the union of proven constants in ascending node
/// id, so the result is a pure function of the shard count, never of
/// the thread count.  One shard is one slice of every gate: it poses
/// exactly `sat_guided_patterns`' queries and returns its result, on a
/// manager of its own.  The fraig baseline keeps `sat_guided_patterns`
/// on its one sweep-long manager (`initial_patterns`).
#pragma once

#include "network/aig.hpp"
#include "sat/cnf_manager.hpp"
#include "sim/patterns.hpp"
#include "sweep/resource_governor.hpp"
#include "sweep/sweep_stats.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace stps::sweep {

class worker_pool;

struct guided_pattern_config
{
  uint64_t base_patterns = 1024;   ///< random patterns before guidance
  uint64_t seed = 0x5eed;          ///< RNG seed for the random base
  int64_t conflict_budget = 1000;  ///< per-query budget (unknown → skip)
  uint32_t round1_iterations = 2;  ///< re-simulate & retry rounds
  uint64_t round2_ones_threshold = 2;  ///< "few ones" bound for round 2
  std::size_t max_round2_queries = 512;
  /// Seed each guided query's cone phases from the current signatures
  /// (stp_sweep_params::use_signature_phase; the STP sweeper forwards
  /// its flag — the fraig baseline leaves it off).
  bool use_signature_phase = false;
  /// Resource governor of the enclosing sweep job (non-owning; null =
  /// ungoverned).  Both rounds poll it between queries and return the
  /// patterns generated so far when it trips — a partial pattern set is
  /// still a valid pattern set, and `proven_constants` only ever holds
  /// completed UNSAT proofs.
  resource_governor* governor = nullptr;
};

struct guided_pattern_result
{
  sim::pattern_set patterns;
  /// Gates proven constant in round 1: (node, constant value).
  std::vector<std::pair<net::node, bool>> proven_constants;
  uint64_t sat_calls = 0;        ///< total SAT queries issued
  uint64_t satisfiable_calls = 0;
  uint64_t patterns_added = 0;   ///< guided patterns appended to the base
  double sim_seconds = 0.0;      ///< time in the simulator
  double sat_seconds = 0.0;      ///< time in the SAT queries
};

/// Runs both guidance rounds; the manager accumulates the circuit CNF, so
/// passing the sweeper's own CNF manager shares encoded cones and learned
/// clauses with the later equivalence queries (subject to its garbage
/// policy).
guided_pattern_result sat_guided_patterns(const net::aig_network& aig,
                                          sat::cnf_manager& cnf,
                                          const guided_pattern_config& config);

/// The guidance rounds split into \p shards slices run as jobs of
/// \p pool (see the file comment), each on a fresh manager built from
/// \p cnf_params.  Returns the canonical merge — `proven_constants` in
/// ascending node id, the counts and seconds summed over slices — and
/// adds the slices' manager counters (`fill_cnf_stats` each) to
/// \p sat_counters.  One slice poses exactly `sat_guided_patterns`'
/// queries, on a manager of its own.
guided_pattern_result sharded_guided_patterns(
    const net::aig_network& aig, const sat::cnf_manager::params& cnf_params,
    const guided_pattern_config& config, uint32_t shards, worker_pool& pool,
    sweep_stats& sat_counters);

/// Alg. 2 lines 2-3 on the caller's manager (the fraig baseline's): runs
/// both guidance rounds (\p guided) or draws `config.base_patterns`
/// random patterns, substitutes every proven constant into \p aig, and
/// books the calls, merges and seconds (`prologue_*` included) in
/// \p stats.  Returns the initial pattern set.
sim::pattern_set initial_patterns(net::aig_network& aig,
                                  sat::cnf_manager& cnf,
                                  const guided_pattern_config& config,
                                  bool guided, sweep_stats& stats);

/// `initial_patterns` on `sharded_guided_patterns` (the STP sweeper's,
/// at every shard count); the slices' manager counters are added to
/// \p stats as well.
sim::pattern_set sharded_initial_patterns(
    net::aig_network& aig, const sat::cnf_manager::params& cnf_params,
    const guided_pattern_config& config, bool guided, uint32_t shards,
    worker_pool& pool, sweep_stats& stats);

} // namespace stps::sweep
