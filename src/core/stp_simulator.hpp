/// \file stp_simulator.hpp
/// \brief The paper's STP-based circuit simulator (§III, Algorithm 1).
///
/// Two modes, as in the paper:
///
/// * **all nodes** (`m == a`): visit every gate in topological order and
///   compute its whole signature row by one STP matrix pass
///   (`stp_evaluate_rows`: 2^k table masks once per gate, then ~2^k word
///   multiplexes per word, in blocks of 8 words).
/// * **specified nodes** (`m == s`): only signatures of a target set are
///   wanted.  The simulator derives the leaf limit from the pattern count
///   (`limit = log2(n)`, Alg. 1 line 4 — so that a cut's exhaustive truth
///   table is never wider than the pattern set it replaces), collapses the
///   network into tree cuts with the targets as boundaries (§III-B),
///   computes every cut's truth table by STP composition, and simulates
///   only the cut roots in the targets' cones, by the same kernel.
///
/// `simulate_aig` runs the same matrix pass over an AIG (each AND with
/// edge complements is a 2-input LUT) — the `TA` column of Table I.
///
/// Every mode writes into one `sim::signature_store` per call.  Its arena
/// arrives zeroed without a `memset` (a huge-page-advised mapping from
/// 2 MiB up, see signature_store.hpp), so at 2^17 patterns a run pays
/// for its kernels, not for one page fault per 4 KiB of result; rows a
/// mode never writes (row 0 of `simulate_aig`) read zero.
#pragma once

#include "core/stp_eval.hpp"
#include "cut/tree_cuts.hpp"
#include "network/aig.hpp"
#include "network/klut.hpp"
#include "sim/patterns.hpp"
#include "sim/signature_store.hpp"

#include <span>
#include <unordered_map>
#include <vector>

namespace stps::core {

/// Statistics of one specified-node run (for the benches and tests).
struct stp_sim_stats
{
  uint32_t leaf_limit = 0;   ///< limit actually used (log2 of patterns)
  std::size_t num_cuts = 0;  ///< cut roots in the collapsed network
  std::size_t num_simulated = 0; ///< roots actually evaluated
};

class stp_simulator
{
public:
  /// \p leaf_limit_override forces the cut leaf limit; 0 keeps the
  /// paper's `log2(#patterns)` rule.
  explicit stp_simulator(uint32_t leaf_limit_override = 0u)
      : leaf_limit_override_{leaf_limit_override}
  {
  }

  /// Mode `a`: signatures of every node (indexed by klut node id).
  sim::signature_store simulate_all(const net::klut_network& klut,
                                    const sim::pattern_set& patterns) const;

  /// Mode `s`: signatures of \p targets only; key = original node id.
  std::unordered_map<net::klut_network::node, std::vector<uint64_t>>
  simulate_specified(const net::klut_network& klut,
                     std::span<const net::klut_network::node> targets,
                     const sim::pattern_set& patterns,
                     stp_sim_stats* stats = nullptr) const;

  /// STP matrix pass over an AIG (Table I, column TA).
  sim::signature_store simulate_aig(const net::aig_network& aig,
                                    const sim::pattern_set& patterns) const;

private:
  uint32_t leaf_limit(uint64_t num_patterns) const;

  uint32_t leaf_limit_override_;
};

} // namespace stps::core
