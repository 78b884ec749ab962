#include "core/stp_simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace stps::core {

namespace {

using knode = net::klut_network::node;

/// Fills gate \p n's row of \p sig from its fanins' rows by one STP
/// matrix pass over every word; \p rows is reused fanin-pointer space.
void evaluate_gate(const net::klut_network& klut, knode n,
                   sim::signature_store& sig,
                   std::vector<const uint64_t*>& rows, stp_scratch& scratch)
{
  rows.clear();
  for (const knode f : klut.fanins(n)) {
    rows.push_back(sig.row(f).data());
  }
  stp_evaluate_rows(klut.table(n), rows, sig.row(n).data(), sig.num_words(),
                    scratch);
}

} // namespace

uint32_t stp_simulator::leaf_limit(uint64_t num_patterns) const
{
  if (leaf_limit_override_ != 0u) {
    return leaf_limit_override_;
  }
  // Alg. 1 line 4: limit = log2(n), so an exhaustive cut table (2^limit
  // entries) never exceeds the pattern set it stands in for.
  uint32_t limit = 0;
  while ((uint64_t{1} << (limit + 1u)) <= num_patterns) {
    ++limit;
  }
  return std::max(limit, 2u);
}

sim::signature_store stp_simulator::simulate_all(
    const net::klut_network& klut, const sim::pattern_set& patterns) const
{
  if (patterns.num_inputs() != klut.num_pis()) {
    throw std::invalid_argument{"simulate_all: input count mismatch"};
  }
  const std::size_t words = patterns.num_words();
  sim::signature_store sig(klut.size(), words);
  sig.fill_row(1u, ~uint64_t{0});
  klut.foreach_pi(
      [&](knode n) { sig.assign_row(n, patterns.input_bits(n - 2u)); });

  stp_scratch scratch;
  scratch.reserve(klut.max_fanin_size());
  std::vector<const uint64_t*> rows;
  klut.foreach_gate(
      [&](knode n) { evaluate_gate(klut, n, sig, rows, scratch); });
  sig.mask_tail(patterns.num_patterns());
  return sig;
}

std::unordered_map<knode, std::vector<uint64_t>>
stp_simulator::simulate_specified(const net::klut_network& klut,
                                  std::span<const knode> targets,
                                  const sim::pattern_set& patterns,
                                  stp_sim_stats* stats) const
{
  if (patterns.num_inputs() != klut.num_pis()) {
    throw std::invalid_argument{"simulate_specified: input count mismatch"};
  }
  const uint32_t limit = leaf_limit(patterns.num_patterns());

  // §III-B: cut the network with the specified nodes as boundaries.
  const cut::collapse_result collapsed =
      cut::collapse_to_cuts(klut, targets, limit);

  // Restrict evaluation to the cones of the targets.
  std::vector<bool> needed(collapsed.net.size(), false);
  std::vector<knode> frontier;
  for (const knode t : targets) {
    const knode m = collapsed.node_map[t];
    if (collapsed.net.is_gate(m) && !needed[m]) {
      needed[m] = true;
      frontier.push_back(m);
    }
  }
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    for (const knode f : collapsed.net.fanins(frontier[i])) {
      if (collapsed.net.is_gate(f) && !needed[f]) {
        needed[f] = true;
        frontier.push_back(f);
      }
    }
  }

  const std::size_t words = patterns.num_words();
  sim::signature_store sig(collapsed.net.size(), words);
  sig.fill_row(1u, ~uint64_t{0});
  collapsed.net.foreach_pi(
      [&](knode n) { sig.assign_row(n, patterns.input_bits(n - 2u)); });

  stp_scratch scratch;
  scratch.reserve(collapsed.net.max_fanin_size());
  std::vector<const uint64_t*> rows;
  std::size_t simulated = 0;
  collapsed.net.foreach_gate([&](knode n) {
    if (needed[n]) {
      ++simulated;
      evaluate_gate(collapsed.net, n, sig, rows, scratch);
    }
  });

  if (stats != nullptr) {
    stats->leaf_limit = limit;
    stats->num_cuts = collapsed.roots.size();
    stats->num_simulated = simulated;
  }

  sig.mask_tail(patterns.num_patterns());

  std::unordered_map<knode, std::vector<uint64_t>> result;
  result.reserve(targets.size());
  for (const knode t : targets) {
    const knode m = collapsed.node_map[t];
    const auto row = sig.row(m);
    result.emplace(t, std::vector<uint64_t>(row.begin(), row.end()));
  }
  return result;
}

sim::signature_store stp_simulator::simulate_aig(
    const net::aig_network& aig, const sim::pattern_set& patterns) const
{
  if (patterns.num_inputs() != aig.num_pis()) {
    throw std::invalid_argument{"simulate_aig: input count mismatch"};
  }
  const std::size_t words = patterns.num_words();
  sim::signature_store sig(aig.size(), words);
  aig.foreach_pi(
      [&](net::node n) { sig.assign_row(n, patterns.input_bits(n - 1u)); });

  // Every AND with edge complements is one of four 2-input LUTs; fold the
  // complements into the structural matrix so the matrix pass is uniform.
  const tt::truth_table and_tables[4] = {
      tt::truth_table{2u, {0x8ull}}, //  a ·  b  (minterm 3)
      tt::truth_table{2u, {0x4ull}}, // ¬a ·  b  (minterm 2: a=0, b=1)
      tt::truth_table{2u, {0x2ull}}, //  a · ¬b  (minterm 1: a=1, b=0)
      tt::truth_table{2u, {0x1ull}}, // ¬a · ¬b  (minterm 0)
  };
  aig.foreach_gate([&](net::node n) {
    const net::signal a = aig.fanin0(n);
    const net::signal b = aig.fanin1(n);
    const auto& table =
        and_tables[(a.is_complemented() ? 1u : 0u) |
                   (b.is_complemented() ? 2u : 0u)];
    // The k = 2 matrix pass, inlined: the structural matrix's four
    // columns become word masks, each input halves the active block.
    const uint64_t h0 = table.bit(0u) ? ~uint64_t{0} : 0u;
    const uint64_t h1 = table.bit(1u) ? ~uint64_t{0} : 0u;
    const uint64_t h2 = table.bit(2u) ? ~uint64_t{0} : 0u;
    const uint64_t h3 = table.bit(3u) ? ~uint64_t{0} : 0u;
    const uint64_t* sa = sig.row(a.get_node()).data();
    const uint64_t* sb = sig.row(b.get_node()).data();
    uint64_t* po = sig.row(n).data();
    for (std::size_t w = 0; w < words; ++w) {
      const uint64_t va = sa[w];
      const uint64_t vb = sb[w];
      const uint64_t blk0 = (vb & h2) | (~vb & h0);
      const uint64_t blk1 = (vb & h3) | (~vb & h1);
      po[w] = (va & blk1) | (~va & blk0);
    }
  });
  sig.mask_tail(patterns.num_patterns());
  return sig;
}

} // namespace stps::core
