#include "sweep/sweep_stats.hpp"

#include "sat/cnf_manager.hpp"

#include <type_traits>

namespace stps::sweep {

void add_counters(sweep_stats& total, const sweep_stats& part)
{
  for_each_counter([&](const char*, auto field, counter_scope) {
    using value_type = std::remove_cvref_t<decltype(total.*field)>;
    if constexpr (std::is_same_v<value_type, uint64_t> ||
                  std::is_same_v<value_type, double>) {
      total.*field += part.*field;
    }
  });
}

void fill_cnf_stats(sweep_stats& stats, const sat::cnf_manager& cnf)
{
  stats.sat_nodes_encoded = cnf.nodes_encoded();
  stats.sat_solver_rebuilds = cnf.rebuilds();
  stats.sat_clauses_peak = cnf.clauses_peak();
  const sat::solver_stats solver_totals = cnf.solver_statistics();
  stats.sat_conflicts = solver_totals.conflicts;
  stats.sat_decisions = solver_totals.decisions;
  stats.sat_propagations = solver_totals.propagations;
  stats.sat_restarts = solver_totals.restarts;
  stats.sat_learnts_reduced = solver_totals.learnts_reduced;
  stats.sat_lbd_sum = solver_totals.lbd_sum;
  stats.sat_binary_clauses = solver_totals.binary_clauses;
  stats.sat_lits_collapsed = solver_totals.lits_collapsed;
  stats.sat_clauses_subsumed = solver_totals.clauses_subsumed;
  stats.sat_inprocess_seconds = solver_totals.inprocess_seconds;
  stats.phase_seed_words = cnf.phase_seeds();
}

} // namespace stps::sweep
