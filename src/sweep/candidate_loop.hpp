/// \file candidate_loop.hpp
/// \brief Alg. 2's candidate loop with escalating unDET retry, shared by
/// both sweepers (stp_sweeper.hpp point 6).
#pragma once

#include "network/aig.hpp"
#include "sweep/sweep_stats.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace stps::sweep {

/// How one candidate's processing ended (escalating unDET retry +
/// governed wind-down).
enum class cand_status : uint8_t
{
  settled,  ///< merged, refined away, kept as representative, ...
  gave_up,  ///< unknown with no rounds left: final dont_touch
  deferred, ///< unknown: stays in its class, queued for a retry round
  stopped,  ///< governor tripped mid-processing: wind the sweep down
};

/// True once the sweep's resource governor (if any) asks to stop;
/// \p Params is stp_sweep_params or fraig_params.
template <typename Params>
bool governor_stopped(const Params& params)
{
  return params.governor != nullptr && params.governor->should_stop();
}

/// Runs \p process(n, budget, allow_defer) over \p order (round 0),
/// then re-queries the deferred candidates in up to
/// `undet_retry_rounds` retry rounds, multiplying the per-query budget
/// by `undet_budget_factor` each round.  The last round may no longer
/// defer, so every survivor settles or ends as a final dont_touch.
/// Candidates for which \p settled(n) holds are skipped (in a retry
/// round they count as resolved).  Nothing defers under the unlimited
/// default budget, which is the paper's single-shot marking.
///
/// Returns true iff the governor stopped the sweep; candidates still
/// deferred then stay undecided, which is not the same as unDET.
template <typename Params, typename Settled, typename Process>
bool run_candidate_loop(std::span<const net::node> order,
                        const Params& params, sweep_stats& stats,
                        Settled&& settled, Process&& process)
{
  const uint32_t rounds = params.undet_retry_rounds;
  const int64_t factor =
      std::max<int64_t>(int64_t{params.undet_budget_factor}, 1);
  int64_t budget = params.conflict_budget;
  std::span<const net::node> pending = order;
  std::vector<net::node> queue;
  std::vector<net::node> deferred;
  for (uint32_t round = 0;; ++round) {
    const bool retry = round > 0u;
    const bool allow_defer = budget >= 0 && round < rounds;
    for (const net::node n : pending) {
      if (governor_stopped(params)) {
        return true;
      }
      if (settled(n)) {
        stats.undet_resolved += retry ? 1u : 0u;
        continue;
      }
      stats.undet_retries += retry ? 1u : 0u;
      switch (process(n, budget, allow_defer)) {
        case cand_status::settled:
          stats.undet_resolved += retry ? 1u : 0u;
          break;
        case cand_status::deferred:
          deferred.push_back(n);
          break;
        case cand_status::stopped:
          return true;
        case cand_status::gave_up:
          break;
      }
    }
    if (deferred.empty() || round == rounds) {
      return false;
    }
    budget = budget > std::numeric_limits<int64_t>::max() / factor
                 ? std::numeric_limits<int64_t>::max()
                 : budget * factor;
    std::swap(queue, deferred);
    deferred.clear();
    pending = queue;
  }
}

} // namespace stps::sweep
