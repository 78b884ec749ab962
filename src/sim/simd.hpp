/// \file simd.hpp
/// \brief Runtime-dispatched SIMD word kernels over the flat arenas.
///
/// The flat arenas (node-major signatures, input-major patterns, the
/// open word's one-word-per-node column) make the simulation hot loops
/// straight-line loads/XOR/AND over contiguous `uint64_t` arrays, so
/// vectorizing is a kernel layer, not a data-structure change.  Every
/// kernel here has a portable scalar implementation and an explicit
/// AVX2 variant (GCC/Clang `__attribute__((target("avx2")))`, selected
/// once per process via CPUID), and the two are byte-identical on every
/// input — pinned by tests/test_simd.cpp — so dispatch is purely a
/// throughput decision.  `force_level` pins dispatch for tests and
/// ablation; it is not meant to be raced against running kernels.
#pragma once

#include <cstddef>
#include <cstdint>

namespace stps::sim::simd {

enum class level : int { scalar = 0, avx2 = 1 };

/// Highest kernel level this CPU can execute (detected once).
level detected_level() noexcept;
/// Level the kernels dispatch to: the forced level if any, else the
/// detected one.
level active_level() noexcept;
/// Pins dispatch to \p l for the whole process (tests/ablation).
/// Throws std::invalid_argument if the CPU cannot execute \p l.
void force_level(level l);
/// Returns dispatch to the detected level.
void reset_level() noexcept;
const char* level_name(level l) noexcept;

/// out[i] = (a[i] ^ ca) & (b[i] ^ cb) for i < count — the AIG
/// word-simulation inner loop.  \p ca and \p cb are all-ones complement
/// masks or zero.  \p out may alias neither input.
void and_words(uint64_t* out, const uint64_t* a, uint64_t ca,
               const uint64_t* b, uint64_t cb, std::size_t count);

/// Whole-row normalized signature compare: true iff
/// (a[i] ^ flip) == b[i] for every i < count, with the final word
/// masked by \p last_mask on both sides.  Requires count > 0.
bool rows_equal_normalized(const uint64_t* a, const uint64_t* b,
                           uint64_t flip, std::size_t count,
                           uint64_t last_mask);

/// keys[i] = (base[members[i] * stride] ^ (phase[members[i]] ? ~0 : 0))
/// & word_mask for i < count — the class-refinement key gather.
/// \p phase is indexed by node id and holds 0/1 bytes.  Callers must
/// guarantee members[i] * stride < 2^31 (checked at the call site
/// against the store dimensions) so 32-bit gather indices cannot wrap.
void gather_normalized_keys(uint64_t* keys, const uint32_t* members,
                            std::size_t count, const uint64_t* base,
                            uint32_t stride, const uint8_t* phase,
                            uint64_t word_mask);

/// Whole-AIG word resimulation over a column (one word per node id):
///   wb[n] = (wb[lit0[n] >> 1] ^ -(lit0[n] & 1)) &
///           (wb[lit1[n] >> 1] ^ -(lit1[n] & 1))
/// for n in [first, size) ascending (complement bits expand to all-ones
/// masks).  \p safe4 is a bitmap over consecutive 4-blocks counted from
/// \p first: bit b set means every fanin id of block b's four nodes
/// precedes the block, so the block has no intra-block dependency and
/// may be evaluated 4-wide; unsafe blocks and the tail run scalar.
void resim_words(uint64_t* wb, const uint32_t* lit0, const uint32_t* lit1,
                 uint32_t first, uint32_t size, const uint64_t* safe4);

} // namespace stps::sim::simd
