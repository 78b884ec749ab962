/// \file inprocess.hpp
/// \brief Between-query clause-database simplification.
///
/// The sweeping loop issues thousands of incremental queries against one
/// long-lived solver, so the clause database accretes structure worth
/// simplifying *between* queries (never inside solve()):
///
///   1. **Equivalent-literal collapsing** — SCCs of the binary
///      implication graph are literal equivalence classes; every clause
///      is rewritten onto class representatives.  The defining
///      equivalence binaries (¬v ∨ r), (v ∨ ¬r) are kept, so an
///      eliminated variable still propagates from its representative.
///      The solver records each eliminated variable's representative,
///      and set_decision_vars adds it (following chains across collapse
///      runs) to any scope listing the variable: the rewritten cone
///      clauses live on the representative, which may lie outside the
///      query's encoded cone, and scope-gated propagation would
///      otherwise never reach it.
///   2. **Backward subsumption** — signature-filtered, budgeted.  A
///      problem clause may only be deleted by a problem subsumer: a
///      learnt subsumer can itself be reduced away later, which would
///      leave the database weaker than the problem.
///   3. **Bounded vivification** — re-propagates each clause's negation
///      literal by literal (clause detached, no learning) and keeps the
///      shortened suffix when propagation closes early.  Phase saving is
///      suspended so the probing does not clobber seeded polarities.
///
/// Invoked by cnf_manager at query boundaries (decision level 0, no
/// removable clauses attached) under the session resource hooks.
#pragma once

#include "sat/resource.hpp"

#include <cstdint>

namespace stps::sat {

class solver;

class inprocessor
{
public:
  struct limits
  {
    /// Pairwise subsumption candidate checks before the phase stops.
    uint64_t subsumption_checks = 200'000;
    /// Propagation steps the vivification pass may spend.
    uint64_t vivify_propagations = 50'000;
    /// Clauses longer than this are not vivified.
    uint32_t vivify_max_size = 24;
  };

  struct outcome
  {
    uint64_t lits_collapsed = 0;   ///< variables eliminated onto reps
    uint64_t clauses_subsumed = 0; ///< clauses deleted by subsumption
    uint64_t clauses_strengthened = 0; ///< clauses shortened by vivification
    bool unsat = false; ///< simplification proved the database unsat
  };

  /// Runs all phases on \p s (which must sit at decision level 0 with no
  /// removable clauses attached).  \p hooks, when non-null, is polled
  /// between phases and inside the budgeted loops; a stop request ends
  /// inprocessing early with whatever was already (soundly) applied.
  /// Accumulates into the solver's policy counters and returns the
  /// per-run outcome.
  static outcome run(solver& s, const limits& lim, resource_hooks* hooks);

private:
  /// Phase 1; returns false when the database became unsat.
  static bool collapse(solver& s, outcome& out);
  /// Phase 2 (never derives unsat — it only deletes implied clauses).
  static void subsume(solver& s, const limits& lim, resource_hooks* hooks,
                      outcome& out);
  /// Phase 3; returns false when the database became unsat.
  static bool vivify(solver& s, const limits& lim, resource_hooks* hooks,
                     outcome& out);
};

} // namespace stps::sat
