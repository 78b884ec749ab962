/// \file stp_eval.hpp
/// \brief Word-parallel STP evaluation of a k-LUT.
///
/// The paper's claim (§III): with STP, "the output values of any node can
/// be computed by one matrix pass".  A structural matrix M_f ∈ M_{2×2^k}
/// multiplied by input vectors x_1 ⋉ … ⋉ x_k halves its active column
/// block with every factor.  Lifting that product to 64 simulation
/// patterns at once, each halving step becomes one word multiplex
///
///     block_i = (x & block_{i+2^{j}}) | (~x & block_i).
///
/// `stp_evaluate_rows` is this matrix pass over a whole gate: it turns the
/// 2^k table bits into all-ones/all-zeros word masks once per gate, then
/// runs the halvings over blocks of 8 signature words at a time (a scalar
/// tail takes the rest), so a k-LUT costs ~2^k word multiplexes per word —
/// instead of the per-pattern bit extraction and index assembly of
/// conventional k-LUT simulators (src/sim/bitwise_sim.hpp).  The first
/// halving selects straight from the masks; every later one is an 8-wide
/// multiplex the compiler vectorises.  `stp_evaluate_word` is its
/// one-word case, and `stp_evaluate_single` is the literal one-pattern
/// STP product; tests pin all three to each other and to the
/// dense-matrix algebra in src/stp.
#pragma once

#include "tt/truth_table.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace stps::core {

/// Scratch space reused across gates; sized for the largest k.
class stp_scratch
{
public:
  void reserve(uint32_t max_vars);
  uint64_t* data() noexcept { return blocks_.data(); }
  std::size_t size() const noexcept { return blocks_.size(); }

private:
  std::vector<uint64_t> blocks_;
};

/// Evaluates \p table over \p num_words signature words: `inputs[i]`
/// points at the words of fanin i (i = table variable i, LSB-first) and
/// the output words go to \p out.  \p scratch must be reserved for at
/// least `table.num_vars()` variables.
void stp_evaluate_rows(const tt::truth_table& table,
                       std::span<const uint64_t* const> inputs,
                       uint64_t* out, std::size_t num_words,
                       stp_scratch& scratch);

/// One-word case of `stp_evaluate_rows`: `inputs[i]` is the signature
/// word of fanin i; returns the output word.
uint64_t stp_evaluate_word(const tt::truth_table& table,
                           std::span<const uint64_t> inputs,
                           stp_scratch& scratch);

/// Literal single-pattern STP product M_f ⋉ x_1 ⋉ … ⋉ x_k.  inputs[i]
/// corresponds to table variable i; internally reversed into STP factor
/// order (x_1 = leading = MSB variable).
bool stp_evaluate_single(const tt::truth_table& table,
                         std::span<const bool> inputs);

} // namespace stps::core
