/// \file fraig.hpp
/// \brief Baseline FRAIG-style SAT sweeper (the `&fraig` comparator of
/// Table II).
///
/// The classical flow of refs [2, 11]: random word-parallel initial
/// simulation groups nodes into candidate equivalence classes; gates are
/// processed in topological order and checked against their class
/// representative with SAT; UNSAT merges the pair, SAT yields a
/// counter-example that is appended to the pattern set and *bit-parallel
/// re-simulated over the whole network* to refine all classes.  The STP
/// sweeper (stp_sweeper.hpp) differs in pattern quality (SAT-guided
/// rounds), STP k-LUT initial simulation, candidate order and driver
/// selection, batched CE refinement, and exhaustive window resolution.
/// Both resimulate counter-examples over the whole AIG; the paper's
/// collapsed k-LUT CE view was measured and removed (bench/README.md).
#pragma once

#include "network/aig.hpp"
#include "sweep/sat_patterns.hpp"
#include "sweep/sweep_stats.hpp"

#include <cstdint>

namespace stps::sweep {

struct fraig_params
{
  uint64_t num_patterns = 2048;   ///< initial random patterns
  uint64_t seed = 1;
  int64_t conflict_budget = -1;   ///< per query; -1 = unlimited (paper)
  /// `&fraig -x` itself invests in SAT-guided initial simulation
  /// ([6]; §V-B: "While &fraig invests runtime resources in high-quality
  /// initial simulation...").  Enabled by default to model that; the
  /// plain-random configuration remains available for ablations.
  bool use_guided_patterns = true;

  /// \name Budgeted, interruptible sweeping (same semantics as
  /// stp_sweep_params — see stp_sweeper.hpp point 6)
  /// \{
  resource_governor* governor = nullptr; ///< non-owning; null = ungoverned
  uint32_t undet_retry_rounds = 3;  ///< escalating unDET retry rounds
  uint32_t undet_budget_factor = 2; ///< per-round budget multiplier
  sat::fault_plan faults{};         ///< deterministic fault injection
  /// \}

  fraig_params() = default;
  fraig_params(uint64_t patterns, uint64_t s, int64_t budget,
               bool guided = true)
      : num_patterns{patterns}, seed{s}, conflict_budget{budget},
        use_guided_patterns{guided}
  {
  }
};

/// Sweeps \p aig in place; returns the Table II counters.
sweep_stats fraig_sweep(net::aig_network& aig, const fraig_params& params);

} // namespace stps::sweep
