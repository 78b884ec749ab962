#include "sim/bitwise_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

namespace stps::sim {

signature_store simulate_aig(const net::aig_network& aig,
                             const pattern_set& patterns)
{
  if (patterns.num_inputs() != aig.num_pis()) {
    throw std::invalid_argument{"simulate_aig: input count mismatch"};
  }
  const std::size_t words = patterns.num_words();
  signature_store sig(aig.size(), words);
  // Row 0 (constant zero) stays zero.
  aig.foreach_pi(
      [&](net::node n) { sig.assign_row(n, patterns.input_bits(n - 1u)); });
  aig.foreach_gate([&](net::node n) {
    const net::signal a = aig.fanin0(n);
    const net::signal b = aig.fanin1(n);
    const uint64_t* sa = sig.row(a.get_node()).data();
    const uint64_t* sb = sig.row(b.get_node()).data();
    uint64_t* out = sig.row(n).data();
    const uint64_t ca = a.is_complemented() ? ~uint64_t{0} : 0u;
    const uint64_t cb = b.is_complemented() ? ~uint64_t{0} : 0u;
    for (std::size_t i = 0; i < words; ++i) {
      out[i] = (sa[i] ^ ca) & (sb[i] ^ cb);
    }
  });
  sig.mask_tail(patterns.num_patterns());
  return sig;
}

signature_store simulate_klut_bitwise(const net::klut_network& klut,
                                      const pattern_set& patterns)
{
  if (patterns.num_inputs() != klut.num_pis()) {
    throw std::invalid_argument{"simulate_klut_bitwise: input mismatch"};
  }
  const std::size_t words = patterns.num_words();
  const uint64_t n_pat = patterns.num_patterns();
  signature_store sig(klut.size(), words);
  sig.fill_row(1u, ~uint64_t{0}); // constant one
  klut.foreach_pi([&](net::klut_network::node n) {
    sig.assign_row(n, patterns.input_bits(n - 2u));
  });
  std::vector<const uint64_t*> ins;
  klut.foreach_gate([&](net::klut_network::node n) {
    const auto& fis = klut.fanins(n);
    const uint64_t* tw = klut.table(n).words().data();
    uint64_t* out = sig.row(n).data();
    ins.resize(fis.size());
    for (std::size_t i = 0; i < fis.size(); ++i) {
      ins[i] = sig.row(fis[i]).data();
    }
    // The conventional path: per pattern, extract each input bit,
    // assemble the LUT index, look up one bit.
    const std::size_t k = fis.size();
    for (uint64_t p = 0; p < n_pat; ++p) {
      const uint64_t word = p >> 6u;
      const uint64_t bit = p & 63u;
      uint64_t index = 0;
      for (std::size_t i = 0; i < k; ++i) {
        index |= ((ins[i][word] >> bit) & 1u) << i;
      }
      out[word] |= ((tw[index >> 6u] >> (index & 63u)) & 1u) << bit;
    }
  });
  sig.mask_tail(n_pat);
  return sig;
}

resim_plan make_resim_plan(const net::aig_network& aig)
{
  resim_plan plan;
  plan.size = static_cast<uint32_t>(aig.size());
  plan.first = 1u + aig.num_pis();
  plan.lit0.assign(plan.size, 0u);
  plan.lit1.assign(plan.size, 0u);
  for (uint32_t n = plan.first; n < plan.size; ++n) {
    const net::signal a = aig.fanin0(n);
    const net::signal b = aig.fanin1(n);
    plan.lit0[n] = (a.get_node() << 1u) | (a.is_complemented() ? 1u : 0u);
    plan.lit1[n] = (b.get_node() << 1u) | (b.is_complemented() ? 1u : 0u);
  }
  return plan;
}

open_word::open_word(const pattern_set& patterns, const resim_plan& plan)
    : plan_{&plan}, num_patterns_{patterns.num_patterns()},
      column_(plan.size, 0u)
{
  if (patterns.num_inputs() + 1u != plan.first) {
    throw std::invalid_argument{"open_word: input count mismatch"};
  }
  if (patterns.num_words() != 0u) {
    const std::size_t last = patterns.num_words() - 1u;
    for (uint32_t i = 0; i < patterns.num_inputs(); ++i) {
      column_[1u + i] = patterns.input_word(i, last);
    }
  }
  resimulate();
}

void open_word::add_pattern(const std::vector<bool>& assignment)
{
  if (assignment.size() + 1u != plan_->first) {
    throw std::invalid_argument{"open_word: arity mismatch"};
  }
  uint64_t* const pi_rows = column_.data() + 1u;
  if (full()) {
    std::fill_n(pi_rows, assignment.size(), uint64_t{0});
  }
  const uint64_t bit = uint64_t{1} << (num_patterns_ % 64u);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i]) {
      pi_rows[i] |= bit;
    }
  }
  ++num_patterns_;
  resimulate();
}

void open_word::resimulate()
{
  // Complement bits expand to all-ones masks; id order is topological.
  uint64_t* const wb = column_.data();
  const uint32_t* const lit0 = plan_->lit0.data();
  const uint32_t* const lit1 = plan_->lit1.data();
  for (uint32_t n = plan_->first; n < plan_->size; ++n) {
    const uint32_t l0 = lit0[n];
    const uint32_t l1 = lit1[n];
    wb[n] = (wb[l0 >> 1u] ^ (uint64_t{0} - (l0 & 1u))) &
            (wb[l1 >> 1u] ^ (uint64_t{0} - (l1 & 1u)));
  }
}

bool evaluate_aig_node(const net::aig_network& aig, net::node n,
                       std::span<const bool> assignment)
{
  if (assignment.size() != aig.num_pis()) {
    throw std::invalid_argument{"evaluate_aig_node: arity mismatch"};
  }
  std::vector<uint8_t> value(aig.size(), 0u);
  std::vector<uint8_t> known(aig.size(), 0u);
  known[0] = 1u;
  aig.foreach_pi([&](net::node pi) {
    value[pi] = assignment[pi - 1u] ? 1u : 0u;
    known[pi] = 1u;
  });
  aig.foreach_gate([&](net::node g) {
    const net::signal a = aig.fanin0(g);
    const net::signal b = aig.fanin1(g);
    assert(known[a.get_node()] && known[b.get_node()]);
    const bool va = value[a.get_node()] ^ a.is_complemented();
    const bool vb = value[b.get_node()] ^ b.is_complemented();
    value[g] = va && vb;
    known[g] = 1u;
  });
  return value[n];
}

} // namespace stps::sim
