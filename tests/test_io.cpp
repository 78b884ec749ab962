#include "cut/lut_mapper.hpp"
#include "gen/arithmetic.hpp"
#include "gen/random_logic.hpp"
#include "io/aiger.hpp"
#include "io/bench.hpp"
#include "io/blif.hpp"
#include "sim/bitwise_sim.hpp"
#include "sweep/cec.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using namespace stps;

void expect_equivalent(const net::aig_network& a, const net::aig_network& b)
{
  ASSERT_EQ(a.num_pis(), b.num_pis());
  ASSERT_EQ(a.num_pos(), b.num_pos());
  EXPECT_TRUE(sweep::check_equivalence(a, b).equivalent);
}

TEST(Aiger, AsciiRoundTrip)
{
  const auto original = gen::make_adder(12u);
  std::stringstream ss;
  io::write_aiger_ascii(original, ss);
  const auto reread = io::read_aiger(ss);
  EXPECT_EQ(reread.num_gates(), original.num_gates());
  expect_equivalent(original, reread);
}

TEST(Aiger, BinaryRoundTrip)
{
  const auto original = gen::make_random_logic({14u, 9u, 500u, 8u, 25u});
  std::stringstream ss;
  io::write_aiger_binary(original, ss);
  const auto reread = io::read_aiger(ss);
  EXPECT_EQ(reread.num_gates(), original.num_gates());
  expect_equivalent(original, reread);
}

TEST(Aiger, RoundTripAfterSubstitutionCompacts)
{
  // Dead nodes must not leak into the file.
  auto aig = gen::make_adder(6u);
  const auto order_gate = [&]() {
    net::node last = 0;
    aig.foreach_gate([&](net::node n) { last = n; });
    return last;
  }();
  (void)order_gate;
  aig.cleanup_dangling();
  std::stringstream ss;
  io::write_aiger_ascii(aig, ss);
  const auto reread = io::read_aiger(ss);
  expect_equivalent(aig, reread);
}

TEST(Aiger, AsciiHeaderParsing)
{
  std::stringstream ss{"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"};
  const auto aig = io::read_aiger(ss);
  EXPECT_EQ(aig.num_pis(), 2u);
  EXPECT_EQ(aig.num_pos(), 1u);
  EXPECT_EQ(aig.num_gates(), 1u);
  // The single AND drives the PO.
  const auto f = aig.po_at(0);
  EXPECT_FALSE(f.is_complemented());
  EXPECT_TRUE(aig.is_and(f.get_node()));
}

TEST(Aiger, RejectsGarbage)
{
  std::stringstream ss{"not_aiger 1 2 3\n"};
  EXPECT_THROW(io::read_aiger(ss), std::runtime_error);
  EXPECT_THROW(io::read_aiger(std::string{"/nonexistent/file.aig"}),
               std::runtime_error);
}

TEST(Blif, ContainsModelAndCovers)
{
  const auto aig = gen::make_adder(4u);
  const auto mapped = cut::lut_map(aig, 4u);
  std::stringstream ss;
  io::write_blif(mapped.klut, ss, "adder4");
  const std::string text = ss.str();
  EXPECT_NE(text.find(".model adder4"), std::string::npos);
  EXPECT_NE(text.find(".inputs"), std::string::npos);
  EXPECT_NE(text.find(".outputs"), std::string::npos);
  EXPECT_NE(text.find(".names"), std::string::npos);
  EXPECT_NE(text.find(".end"), std::string::npos);
  // One .names block per gate + 2 constants + one buffer per PO.
  std::size_t names = 0;
  for (std::size_t pos = text.find(".names"); pos != std::string::npos;
       pos = text.find(".names", pos + 1u)) {
    ++names;
  }
  EXPECT_EQ(names, mapped.klut.num_gates() + 2u + mapped.klut.num_pos());
}

TEST(Blif, RoundTripThroughReader)
{
  const auto aig = gen::make_adder(6u);
  const auto mapped = cut::lut_map(aig, 4u);
  std::stringstream ss;
  io::write_blif(mapped.klut, ss);
  const auto reread = io::read_blif(ss);
  ASSERT_EQ(reread.num_pis(), mapped.klut.num_pis());
  ASSERT_EQ(reread.num_pos(), mapped.klut.num_pos());
  const auto patterns = sim::pattern_set::random(aig.num_pis(), 512u, 3u);
  const auto sa = sim::simulate_klut_bitwise(mapped.klut, patterns);
  const auto sb = sim::simulate_klut_bitwise(reread, patterns);
  for (uint32_t i = 0; i < mapped.klut.num_pos(); ++i) {
    EXPECT_EQ(sa[mapped.klut.po_at(i)], sb[reread.po_at(i)]) << "PO " << i;
  }
}

TEST(Blif, ReadsDontCaresAndOffsets)
{
  // f = a XOR b via ON-set with no don't-cares; g = NOT(a AND b) via
  // OFF-set rows; h uses a dash.
  std::stringstream ss{
      ".model t\n.inputs a b\n.outputs f g h\n"
      ".names a b f\n10 1\n01 1\n"
      ".names a b g\n11 0\n"
      ".names a b h\n1- 1\n"
      ".end\n"};
  const auto klut = io::read_blif(ss);
  ASSERT_EQ(klut.num_pos(), 3u);
  const auto patterns = sim::pattern_set::exhaustive(2u);
  const auto sig = sim::simulate_klut_bitwise(klut, patterns);
  EXPECT_EQ(sig[klut.po_at(0)][0], 0x6u); // xor
  EXPECT_EQ(sig[klut.po_at(1)][0], 0x7u); // nand
  EXPECT_EQ(sig[klut.po_at(2)][0], 0xau); // a
}

TEST(Blif, RejectsMalformedInput)
{
  std::stringstream undefined{
      ".model t\n.inputs a\n.outputs f\n.names missing f\n1 1\n.end\n"};
  EXPECT_THROW(io::read_blif(undefined), std::runtime_error);
  std::stringstream mixed{
      ".model t\n.inputs a b\n.outputs f\n"
      ".names a b f\n11 1\n00 0\n.end\n"};
  EXPECT_THROW(io::read_blif(mixed), std::runtime_error);
}

TEST(Blif, RejectsDuplicateDefinitions)
{
  // A signal with two drivers must not silently take the second one.
  std::stringstream twice{
      ".model t\n.inputs a b\n.outputs f\n"
      ".names a f\n1 1\n"
      ".names b f\n1 1\n.end\n"};
  EXPECT_THROW(io::read_blif(twice), std::runtime_error);
  // ... including a .names that overwrites a declared input.
  std::stringstream drives_pi{
      ".model t\n.inputs a b\n.outputs f\n"
      ".names b a\n1 1\n"
      ".names a f\n1 1\n.end\n"};
  EXPECT_THROW(io::read_blif(drives_pi), std::runtime_error);
  std::stringstream dup_input{
      ".model t\n.inputs a a\n.outputs f\n.names a f\n1 1\n.end\n"};
  EXPECT_THROW(io::read_blif(dup_input), std::runtime_error);
}

TEST(Blif, RejectsTruncatedAndOutOfRangeCovers)
{
  // Truncated cover line: the input column is shorter than the fanin
  // list (a classic cut-off file).
  std::stringstream truncated{
      ".model t\n.inputs a b c\n.outputs f\n"
      ".names a b c f\n10 1\n.end\n"};
  EXPECT_THROW(io::read_blif(truncated), std::runtime_error);
  // Cover row whose output column is not a literal 0/1 (e.g. the line
  // lost its value and the next row's inputs slid into its place).
  std::stringstream bad_value{
      ".model t\n.inputs a b\n.outputs f\n"
      ".names a b f\n11 x\n.end\n"};
  EXPECT_THROW(io::read_blif(bad_value), std::runtime_error);
  std::stringstream missing_value{
      ".model t\n.inputs a b\n.outputs f\n"
      ".names a b f\n11\n.end\n"};
  EXPECT_THROW(io::read_blif(missing_value), std::runtime_error);
  // Bad cover character inside the input columns.
  std::stringstream bad_char{
      ".model t\n.inputs a b\n.outputs f\n"
      ".names a b f\n1z 1\n.end\n"};
  EXPECT_THROW(io::read_blif(bad_char), std::runtime_error);
}

TEST(Blif, RejectsAbsurdFaninCounts)
{
  // A .names with more fanins than any sane cover must fail before the
  // reader sizes a 2^k-bit table for it.
  std::string header = ".model t\n.inputs";
  std::string names = "\n.names";
  for (int i = 0; i < 40; ++i) {
    header += " i" + std::to_string(i);
    names += " i" + std::to_string(i);
  }
  names += " f\n";
  std::stringstream wide{header + "\n.outputs f" + names +
                         std::string(40u, '1') + " 1\n.end\n"};
  EXPECT_THROW(io::read_blif(wide), std::runtime_error);
}

TEST(Bench, ContainsGateLines)
{
  const auto aig = gen::make_max(4u);
  std::stringstream ss;
  io::write_bench(aig, ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("INPUT(I1)"), std::string::npos);
  EXPECT_NE(text.find("OUTPUT(O0)"), std::string::npos);
  EXPECT_NE(text.find(" = AND("), std::string::npos);
  EXPECT_NE(text.find(" = BUFF("), std::string::npos);
}

// ---- Round trips: parse(write(parse(write(N)))) is equivalent to N ------
// on generated networks of every family each format ships.

TEST(Bench, RoundTripGeneratedNetworks)
{
  const net::aig_network networks[] = {
      gen::make_adder(8u),
      gen::make_max(6u),
      gen::make_random_logic({9u, 7u, 300u, 0xbe7c4u, 30u}),
  };
  for (const net::aig_network& original : networks) {
    std::stringstream ss;
    io::write_bench(original, ss);
    const auto reread = io::read_bench(ss);
    expect_equivalent(original, reread);
    // Second trip is stable (writer handles reader-built networks).
    std::stringstream ss2;
    io::write_bench(reread, ss2);
    const auto reread2 = io::read_bench(ss2);
    ASSERT_EQ(reread2.num_gates(), reread.num_gates());
    expect_equivalent(original, reread2);
  }
}

TEST(Bench, ReadsWideGatesCommentsAndAnyOrder)
{
  // Definitions out of order, arity-3 gates of every type, comments,
  // and the conventional undriven GND/VDD rails.
  std::stringstream ss{
      "# header comment\n"
      "INPUT(a)\nINPUT(b)\nINPUT(c)\n"
      "OUTPUT(y)\nOUTPUT(z)\nOUTPUT(w)\n"
      "y = AND(t1, t2)   # uses signals defined below\n"
      "t1 = OR(a, b, c)\n"
      "t2 = NAND(a, b, c)\n"
      "z = XNOR(a, b, c)\n"
      "w = NOR(t3, GND, VDD)\n"
      "t3 = XOR(a, b)\n"
      "unused = AND(a, b, c)  # valid dead logic is fine, and dropped\n"};
  const auto aig = io::read_bench(ss);
  ASSERT_EQ(aig.num_pis(), 3u);
  ASSERT_EQ(aig.num_pos(), 3u);
  const auto patterns = sim::pattern_set::exhaustive(3u);
  const auto sig = sim::simulate_aig(aig, patterns);
  const auto po_bits = [&](uint32_t i) {
    const auto f = aig.po_at(i);
    const uint64_t v = sig[f.get_node()][0];
    return (f.is_complemented() ? ~v : v) & 0xffu;
  };
  // y = (a|b|c) & ~(a&b&c); z = ~(a^b^c); w = ~((a^b) | 0 | 1) = 0.
  EXPECT_EQ(po_bits(0u), 0x7eu);
  EXPECT_EQ(po_bits(1u), 0x69u);
  EXPECT_EQ(po_bits(2u), 0x00u);
}

TEST(Bench, RejectsMalformedInput)
{
  const char* const cases[] = {
      "",                                            // empty file
      "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n",     // unknown gate type
      "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n",    // undefined signal
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n", // redefinition
      "INPUT(a)\nOUTPUT(y)\na = NOT(a)\n",           // driven input
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n",        // NOT arity
      "INPUT(a)\nOUTPUT(y)\ny = AND(a)\n",           // AND arity
      "INPUT(a)\nOUTPUT(y)\ny = AND(x, z)\nx = NOT(z)\nz = NOT(x)\n", // cycle
      // Damage in logic no OUTPUT reaches must still throw.
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nt = MAJ(a, a, a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nu = AND(ghost, a)\n",
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\np = NOT(q)\nq = NOT(p)\n",
      "INPUT(a)\nOUTPUT(y)\ny = AND(a,)\n",          // empty argument
      "INPUT(a)\nOUTPUT(y)\ny = AND a, a\n",         // missing parens
      "WIRE(a)\n",                                   // unknown declaration
      "INPUT(a, b)\n",                               // declaration arity
      // Garbage operand lists and names the old splitter let through:
      // they silently became (mis-)wired signals instead of errors.
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b) junk\n", // text after ')'
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b,)\n",     // dangling comma
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a,, b)\n",     // doubled comma
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nbad name = NOT(a)\n", // space in name
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nt(0) = NOT(a)\n",    // parens in name
      "INPUT(a)\nOUTPUT(y)\ny = z = NOT(a)\n",               // doubled '='
      "INPUT(a)\nOUTPUT(y)\ny = AND(OR(a, a), a)\n",         // nested call
      "INPUT(a)\nOUTPUT(y)\ny = 2 NOT(a)\n",                 // garbage op
  };
  for (const char* const text : cases) {
    std::stringstream ss{text};
    EXPECT_THROW(io::read_bench(ss), std::runtime_error) << text;
  }
  EXPECT_THROW(io::read_bench(std::string{"/nonexistent/file.bench"}),
               std::runtime_error);
}

TEST(Aiger, RoundTripGeneratedNetworksBothFlavours)
{
  const net::aig_network networks[] = {
      gen::make_multiplier(6u),
      gen::make_random_logic({13u, 9u, 420u, 0xa13e5u, 40u}),
  };
  for (const net::aig_network& original : networks) {
    for (const bool binary : {false, true}) {
      std::stringstream ss;
      if (binary) {
        io::write_aiger_binary(original, ss);
      } else {
        io::write_aiger_ascii(original, ss);
      }
      const auto reread = io::read_aiger(ss);
      ASSERT_EQ(reread.num_gates(), original.num_gates());
      expect_equivalent(original, reread);
    }
  }
}

TEST(Aiger, RejectsMalformedStructure)
{
  const char* const cases[] = {
      "aag 1 2 0 1 1\n2\n4\n6\n6 2 4\n",  // M smaller than I+A
      "aag 3 2 0 1 1\n2\n4\n9\n6 2 4\n",  // PO literal out of range
      "aag 3 2 0 1 1\n2\n4\n6\n6 2 99\n", // AND fanin out of range
      "aag 3 2 0 1 1\n3\n4\n6\n6 2 4\n",  // complemented input literal
      "aig 3 2 0 1 1\n6\n",               // truncated binary section
      "aag 3 2 0 1 1\n2\n4\n6\n6 2\n",    // truncated AND line
      "aag 2 1 0 1 0\n0\n2\n",            // input defined as constant
      "aig 3 2 0 1 1\nxyz\n",             // garbage output literal
      "aig 0 18446744073709551615 1 0 0\n", // header count sum wraps uint64
      "aag 3 1 0 1 2\n2\n6\n4 6 2\n6 2 2\n", // AND forward reference
  };
  for (const char* const text : cases) {
    std::stringstream ss{text};
    EXPECT_THROW(io::read_aiger(ss), std::runtime_error) << text;
  }
  // Binary deltas that cannot fit in 32 bits must be parse errors, not
  // oversized shifts (6 continuation bytes) or silent truncation (high
  // bits in the 5th byte: 2^32 would decode as 0, i.e. self-reference).
  for (const std::string& delta :
       {std::string(6u, '\xff'), std::string{"\x80\x80\x80\x80\x10"},
        std::string{"\x00\x00", 2u}}) { // delta0 = 0: AND reads itself
    std::stringstream ss{std::string{"aig 3 2 0 1 1\n6\n"} + delta};
    EXPECT_THROW(io::read_aiger(ss), std::runtime_error);
  }
}

TEST(Blif, RoundTripGeneratedKluts)
{
  for (const uint32_t k : {2u, 4u, 6u}) {
    const auto aig = gen::make_random_logic({8u, 6u, 260u, 0xb11fu + k, 20u});
    const auto mapped = cut::lut_map(aig, k);
    std::stringstream ss;
    io::write_blif(mapped.klut, ss);
    const auto reread = io::read_blif(ss);
    ASSERT_EQ(reread.num_pis(), mapped.klut.num_pis());
    ASSERT_EQ(reread.num_pos(), mapped.klut.num_pos());
    const auto patterns = sim::pattern_set::exhaustive(8u);
    const auto sa = sim::simulate_klut_bitwise(mapped.klut, patterns);
    const auto sb = sim::simulate_klut_bitwise(reread, patterns);
    for (uint32_t i = 0; i < mapped.klut.num_pos(); ++i) {
      for (std::size_t w = 0; w < patterns.num_words(); ++w) {
        ASSERT_EQ(sa[mapped.klut.po_at(i)][w], sb[reread.po_at(i)][w])
            << "PO " << i << " word " << w << " k " << k;
      }
    }
  }
}

} // namespace
