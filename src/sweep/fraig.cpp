#include "sweep/fraig.hpp"

#include "network/traversal.hpp"
#include "sat/cnf_manager.hpp"
#include "sim/bitwise_sim.hpp"
#include "sweep/candidate_loop.hpp"
#include "sweep/equiv_classes.hpp"

namespace stps::sweep {

sweep_stats fraig_sweep(net::aig_network& aig, const fraig_params& params)
{
  sweep_stats stats;
  const auto t_total = sweep_clock::now();
  stats.gates_before = aig.num_gates();
  stats.levels_before = net::depth(aig);

  // The baseline keeps the same persistent cone-reuse CNF as the STP
  // sweeper (one solver, gate→literal cache) with no garbage policy —
  // the paper's comparison is about guidance and simulation, not the
  // SAT plumbing.  Governance and fault injection ride along so the
  // comparator can be bounded/aborted the same way.
  sat::cnf_manager::params cnf_params;
  cnf_params.hooks = params.governor;
  cnf_params.faults = params.faults;
  sat::cnf_manager cnf{aig, cnf_params};

  // Initial simulation (guided, like `&fraig -x`) and candidate classes.
  guided_pattern_config config;
  config.base_patterns = params.num_patterns;
  config.seed = params.seed;
  config.governor = params.governor;
  const sim::pattern_set patterns = initial_patterns(
      aig, cnf, config, params.use_guided_patterns, stats);
  if (governor_stopped(params)) {
    // Aborted during pattern generation: the constants applied above
    // are completed proofs — finalize the sound partial result.
    aig.cleanup_dangling();
    stats.gates_after = aig.num_gates();
    stats.outcome = params.governor->outcome();
    fill_cnf_stats(stats, cnf);
    stats.total_seconds = seconds_since(t_total);
    return stats;
  }

  auto t_sim = sweep_clock::now();
  equiv_classes classes;
  classes.build(aig, sim::simulate_aig(aig, patterns),
                sim::tail_mask(patterns.num_patterns()));
  // Substitutions only rewire fanins to function-identical signals, so
  // one snapshot of the fanins evaluates every open word exactly as the
  // current network would (resim_plan contract).  The classes absorbed
  // every initial word; counter-examples continue the last one.
  const sim::resim_plan plan = sim::make_resim_plan(aig);
  sim::open_word open{patterns, plan};
  stats.sim_seconds += seconds_since(t_sim);

  // One candidate against its class representative.  Same escalating
  // unDET deferral as the STP sweeper (stp_sweeper.hpp point 6): while
  // \p allow_defer holds, `unknown` keeps the candidate in its class
  // for a retry round instead of removing it for good.
  const auto process_candidate = [&](const net::node n, int64_t budget,
                                     bool allow_defer) -> cand_status {
    for (;;) {
      const uint32_t c = classes.class_of(n);
      if (c == equiv_classes::no_class) {
        return cand_status::settled;
      }
      // Representative: the earliest live member preceding n.
      net::node rep = 0;
      bool have_rep = false;
      for (const net::node m : classes.members(c)) {
        if (m >= n) {
          break;
        }
        if (!aig.is_dead(m)) {
          rep = m;
          have_rep = true;
          break;
        }
      }
      if (!have_rep) {
        // n is (or became) the class representative
        return cand_status::settled;
      }
      const bool complement = classes.complemented(n, rep);

      const auto t_sat = sweep_clock::now();
      ++stats.sat_calls_total;
      const sat::result r = cnf.prove_equivalent(
          net::signal{n, false}, net::signal{rep, false}, complement,
          budget);
      stats.sat_seconds += seconds_since(t_sat);

      if (r == sat::result::unsat) {
        classes.remove_member(n);
        if (aig.is_constant(rep)) {
          ++stats.constant_merges;
        }
        ++stats.merges;
        aig.substitute_node(n, net::signal{rep, complement});
        return cand_status::settled;
      }
      if (r == sat::result::unknown) {
        if (governor_stopped(params)) {
          return cand_status::stopped; // wind-down, not unDET
        }
        if (allow_defer) {
          return cand_status::deferred;
        }
        ++stats.dont_touch;
        classes.remove_member(n);
        return cand_status::gave_up;
      }
      // Counter-example: append, re-simulate the whole network
      // bit-parallel (the baseline's cost), refine every class.
      ++stats.sat_calls_satisfiable;
      ++stats.ce_patterns;
      const auto t_ce = sweep_clock::now();
      open.add_pattern(cnf.model_inputs());
      classes.refine_with_word(open.column(), open.mask());
      stats.sim_seconds += seconds_since(t_ce);
    }
  };

  const std::vector<net::node> order = net::topo_order(aig);
  if (run_candidate_loop(
          order, params, stats, [&](net::node n) { return aig.is_dead(n); },
          process_candidate)) {
    stats.outcome = params.governor->outcome();
  }

  aig.cleanup_dangling();
  stats.gates_after = aig.num_gates();
  fill_cnf_stats(stats, cnf);
  stats.total_seconds = seconds_since(t_total);
  return stats;
}

} // namespace stps::sweep
