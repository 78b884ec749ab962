/// \file test_simd.cpp
/// \brief SIMD-vs-scalar equivalence for the dispatched word kernels.
///
/// Every kernel in sim/simd.hpp must be byte-identical between the
/// scalar implementation and whatever level the CPU dispatches to —
/// that is the whole contract that makes dispatch a pure throughput
/// decision.  The properties run each kernel at every *available*
/// level over randomized shapes that cover the vector width boundaries
/// (counts 0/1 .. 2·lanes+1), the masked final word, unaligned-ish
/// strides, and the resim plan's safe/unsafe 4-block split.  On a CPU
/// without AVX2 the suite degenerates to scalar-vs-scalar and
/// `force_level(avx2)` must throw instead of misdispatching.
#include "gen/random_logic.hpp"
#include "sim/bitwise_sim.hpp"
#include "sim/patterns.hpp"
#include "sim/signature_store.hpp"
#include "sim/simd.hpp"
#include "sweep/equiv_classes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace {

using namespace stps;

std::vector<sim::simd::level> available_levels()
{
  std::vector<sim::simd::level> levels{sim::simd::level::scalar};
  if (sim::simd::detected_level() == sim::simd::level::avx2) {
    levels.push_back(sim::simd::level::avx2);
  }
  return levels;
}

/// Runs \p body once per available level with dispatch pinned to it,
/// and always restores the detected dispatch afterwards.
template <typename Fn>
void for_each_level(const Fn& body)
{
  for (const sim::simd::level l : available_levels()) {
    sim::simd::force_level(l);
    body(l);
  }
  sim::simd::reset_level();
}

TEST(Simd, ForceLevelRoundTrip)
{
  const sim::simd::level detected = sim::simd::detected_level();
  EXPECT_EQ(sim::simd::active_level(), detected);
  sim::simd::force_level(sim::simd::level::scalar);
  EXPECT_EQ(sim::simd::active_level(), sim::simd::level::scalar);
  sim::simd::reset_level();
  EXPECT_EQ(sim::simd::active_level(), detected);
  if (detected != sim::simd::level::avx2) {
    EXPECT_THROW(sim::simd::force_level(sim::simd::level::avx2),
                 std::invalid_argument);
  }
  EXPECT_STREQ(sim::simd::level_name(sim::simd::level::scalar), "scalar");
  EXPECT_STREQ(sim::simd::level_name(sim::simd::level::avx2), "avx2");
}

TEST(Simd, AndWordsMatchesScalarAtEveryCount)
{
  std::mt19937_64 rng{0x51d0u};
  for (std::size_t count = 0; count <= 9u; ++count) {
    std::vector<uint64_t> a(count), b(count);
    for (auto& w : a) {
      w = rng();
    }
    for (auto& w : b) {
      w = rng();
    }
    for (const uint64_t ca : {uint64_t{0}, ~uint64_t{0}}) {
      for (const uint64_t cb : {uint64_t{0}, ~uint64_t{0}}) {
        std::vector<uint64_t> expect(count);
        for (std::size_t i = 0; i < count; ++i) {
          expect[i] = (a[i] ^ ca) & (b[i] ^ cb);
        }
        for_each_level([&](sim::simd::level) {
          std::vector<uint64_t> out(count, 0xdeadbeefu);
          sim::simd::and_words(out.data(), a.data(), ca, b.data(), cb,
                               count);
          EXPECT_EQ(out, expect) << "count " << count;
        });
      }
    }
  }
}

TEST(Simd, RowsEqualNormalizedMatchesScalar)
{
  std::mt19937_64 gen{0x0515u};
  for (std::size_t count = 1; count <= 9u; ++count) {
    for (int variant = 0; variant < 8; ++variant) {
      std::vector<uint64_t> a(count), b(count);
      for (auto& w : a) {
        w = gen();
      }
      const uint64_t flip = (variant & 1) != 0 ? ~uint64_t{0} : 0u;
      // Half the variants are equal rows, half differ somewhere —
      // including differences only in the masked-out tail bits, which
      // must NOT break equality.
      const uint64_t last_mask =
          (variant & 2) != 0 ? sim::tail_mask(17u) : ~uint64_t{0};
      for (std::size_t i = 0; i < count; ++i) {
        b[i] = a[i] ^ flip;
      }
      bool expect_equal = true;
      if ((variant & 4) != 0) {
        const std::size_t where = gen() % count;
        const bool masked_only = (variant & 2) != 0 && where + 1u == count;
        b[where] ^= masked_only ? ~sim::tail_mask(17u) : uint64_t{1} << 3u;
        expect_equal = masked_only;
      }
      for_each_level([&](sim::simd::level l) {
        EXPECT_EQ(sim::simd::rows_equal_normalized(a.data(), b.data(), flip,
                                                   count, last_mask),
                  expect_equal)
            << "count " << count << " variant " << variant << " level "
            << sim::simd::level_name(l);
      });
    }
  }
}

TEST(Simd, GatherNormalizedKeysMatchesScalar)
{
  std::mt19937_64 gen{0x9a7eu};
  const std::size_t num_nodes = 300u;
  for (const uint32_t stride : {1u, 3u, 8u}) {
    std::vector<uint64_t> base(num_nodes * stride);
    for (auto& w : base) {
      w = gen();
    }
    std::vector<uint8_t> phase(num_nodes);
    for (auto& p : phase) {
      p = static_cast<uint8_t>(gen() & 1u);
    }
    for (std::size_t count = 0; count <= 11u; ++count) {
      std::vector<uint32_t> members(count);
      for (auto& m : members) {
        m = static_cast<uint32_t>(gen() % num_nodes);
      }
      for (const uint64_t mask : {~uint64_t{0}, sim::tail_mask(5u)}) {
        std::vector<uint64_t> expect(count);
        for (std::size_t i = 0; i < count; ++i) {
          const uint64_t f = phase[members[i]] != 0u ? ~uint64_t{0} : 0u;
          expect[i] = (base[members[i] * stride] ^ f) & mask;
        }
        for_each_level([&](sim::simd::level) {
          std::vector<uint64_t> keys(count, 0xabadcafeu);
          sim::simd::gather_normalized_keys(keys.data(), members.data(),
                                            count, base.data(), stride,
                                            phase.data(), mask);
          EXPECT_EQ(keys, expect) << "stride " << stride << " count "
                                  << count;
        });
      }
    }
  }
}

TEST(Simd, ResimWordsMatchesScalarWithMixedSafeBlocks)
{
  std::mt19937_64 gen{0x4e51u};
  // A synthetic literal network: nodes [first, size) read two earlier
  // nodes each.  Roughly half the 4-blocks get an intra-block
  // dependency (fanin inside the same block), which must force the
  // scalar path for that block; the rest stay 4-wide safe.
  const uint32_t first = 5u;
  const uint32_t size = 71u; // non-multiple of 4: scalar tail
  std::vector<uint32_t> lit0(size, 0u), lit1(size, 0u);
  std::vector<uint64_t> safe4((size - first) / 4u / 64u + 1u, 0u);
  for (uint32_t n = first; n < size; ++n) {
    const uint32_t block = (n - first) / 4u;
    const uint32_t block_start = first + block * 4u;
    const bool unsafe_block = (block % 2u) == 1u;
    const uint32_t lo =
        unsafe_block && n > block_start ? block_start : 0u;
    const uint32_t max0 = unsafe_block && n > block_start ? n : block_start;
    const auto pick = [&](uint32_t lo_id, uint32_t hi_id) {
      const uint32_t id =
          lo_id + static_cast<uint32_t>(gen() % (hi_id - lo_id));
      return (id << 1u) | static_cast<uint32_t>(gen() & 1u);
    };
    lit0[n] = pick(lo, max0);
    lit1[n] = pick(0u, block_start);
  }
  // Mark exactly the blocks whose fanins all precede the block.
  const uint32_t blocks = (size - first) / 4u;
  for (uint32_t b = 0; b < blocks; ++b) {
    bool safe = true;
    for (uint32_t n = first + b * 4u; n < first + b * 4u + 4u; ++n) {
      safe = safe && (lit0[n] >> 1u) < first + b * 4u &&
             (lit1[n] >> 1u) < first + b * 4u;
    }
    if (safe) {
      safe4[b / 64u] |= uint64_t{1} << (b % 64u);
    }
  }

  std::vector<uint64_t> init(size);
  for (auto& w : init) {
    w = gen();
  }
  std::vector<uint64_t> expect = init;
  for (uint32_t n = first; n < size; ++n) {
    const uint64_t v0 =
        expect[lit0[n] >> 1u] ^ ((lit0[n] & 1u) != 0u ? ~uint64_t{0} : 0u);
    const uint64_t v1 =
        expect[lit1[n] >> 1u] ^ ((lit1[n] & 1u) != 0u ? ~uint64_t{0} : 0u);
    expect[n] = v0 & v1;
  }
  for_each_level([&](sim::simd::level l) {
    std::vector<uint64_t> wb = init;
    sim::simd::resim_words(wb.data(), lit0.data(), lit1.data(), first, size,
                           safe4.data());
    EXPECT_EQ(wb, expect) << sim::simd::level_name(l);
  });
}

TEST(Simd, SignatureRefinementIdenticalAcrossLevels)
{
  // End-to-end: the sweepers' counter-example path at every level — the
  // open-word column recomputed by resim_words, the stride-1 key gather
  // over it, and the class partition it refines to.  40 counter-examples
  // after 100 initial patterns cross one word boundary.
  const auto aig = gen::make_random_logic({12u, 8u, 400u, 0x711bu, 30u});
  const auto patterns =
      sim::pattern_set::random(aig.num_pis(), 100u, 0x711bu);
  sweep::equiv_classes initial;
  initial.build(aig, sim::simulate_aig(aig, patterns),
                sim::tail_mask(patterns.num_patterns()));
  const sim::resim_plan plan = sim::make_resim_plan(aig);
  std::mt19937_64 rng{0x711bu};
  std::vector<std::vector<bool>> ces(40u, std::vector<bool>(aig.num_pis()));
  for (std::vector<bool>& ce : ces) {
    for (std::size_t i = 0; i < ce.size(); ++i) {
      ce[i] = rng() % 8u == 0u;
    }
  }
  std::vector<uint32_t> members;
  for (uint32_t m = 1u; m < aig.size(); m += 3u) {
    members.push_back(m);
  }
  std::vector<uint8_t> phase(aig.size());
  for (uint8_t& p : phase) {
    p = static_cast<uint8_t>(rng() & 1u);
  }

  struct outcome
  {
    std::vector<uint64_t> column;
    std::vector<uint64_t> keys;
    std::vector<uint32_t> class_of;
  };
  std::vector<outcome> per_level;
  for_each_level([&](sim::simd::level) {
    sim::open_word open{patterns, plan};
    sweep::equiv_classes classes = initial;
    for (const std::vector<bool>& ce : ces) {
      open.add_pattern(ce);
      classes.refine_with_word(open.column(), open.mask());
    }
    outcome out;
    out.column.assign(open.column().begin(), open.column().end());
    out.keys.resize(members.size());
    sim::simd::gather_normalized_keys(out.keys.data(), members.data(),
                                      members.size(), open.column().data(),
                                      1u, phase.data(), open.mask());
    for (net::node n = 0; n < aig.size(); ++n) {
      out.class_of.push_back(classes.class_of(n));
    }
    per_level.push_back(std::move(out));
  });
  for (std::size_t i = 1; i < per_level.size(); ++i) {
    EXPECT_EQ(per_level[i].column, per_level.front().column);
    EXPECT_EQ(per_level[i].keys, per_level.front().keys);
    EXPECT_EQ(per_level[i].class_of, per_level.front().class_of);
  }
}

} // namespace
