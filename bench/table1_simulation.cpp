/// \file table1_simulation.cpp
/// \brief Regenerates Table I: circuit simulation runtime on the EPFL
/// benchmark suite.
///
/// Columns, as in the paper:
///   TA — mean simulation time of the AIG;
///   TL — mean simulation time of the 6-LUT network;
/// each for the mockturtle-style bitwise baseline and the STP simulator,
/// with the speedup factor "x" (baseline / STP), geometric means, and the
/// average geometric-mean improvement ("Imp.").
///
/// The paper uses 10^6 random patterns on an Apple M1; the default here
/// is 2^17 (131072) so the whole table regenerates in laptop-CI time —
/// override with --patterns N.  Expected shape: x ≈ 1 on TA, x ≈ 4-10 on
/// TL (paper: geomean 7.18×).
///
/// Every STP and k-LUT result is checked before it is reported: its PO
/// signatures must equal those of the bitwise AIG baseline, or the bench
/// prints the mismatch and exits 1.
///
/// `--json <path>` additionally writes per-benchmark gate counts and the
/// four simulation times as machine-readable JSON (perf-trajectory
/// convention; absolute seconds are machine-specific, compare ratios).
#include "core/stp_simulator.hpp"
#include "cut/lut_mapper.hpp"
#include "gen/benchmarks.hpp"
#include "sim/bitwise_sim.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

using clock_type = std::chrono::steady_clock;

/// Times one simulator call.  The previous result in \p out is freed
/// before the clock starts, and the new one is kept for checking.
template <class Simulate>
double time_call(stps::sim::signature_store& out, Simulate&& simulate)
{
  out = {};
  const auto start = clock_type::now();
  out = simulate();
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// PO signatures of \p aig, edge complements applied, tail bits cleared.
std::vector<uint64_t> aig_po_words(const stps::net::aig_network& aig,
                                   const stps::sim::signature_store& sig,
                                   uint64_t num_patterns)
{
  const uint64_t mask = stps::sim::tail_mask(num_patterns);
  std::vector<uint64_t> out;
  aig.foreach_po([&](stps::net::signal f, uint32_t) {
    const uint64_t flip = f.is_complemented() ? ~uint64_t{0} : 0u;
    for (std::size_t w = 0; w < sig.num_words(); ++w) {
      const uint64_t word = sig.word(f.get_node(), w) ^ flip;
      out.push_back(w + 1u == sig.num_words() ? word & mask : word);
    }
  });
  return out;
}

/// PO signatures of \p klut (its rows already have canonical tails).
std::vector<uint64_t> klut_po_words(const stps::net::klut_network& klut,
                                    const stps::sim::signature_store& sig)
{
  std::vector<uint64_t> out;
  for (uint32_t i = 0; i < klut.num_pos(); ++i) {
    const auto words = sig.row(klut.po_at(i));
    out.insert(out.end(), words.begin(), words.end());
  }
  return out;
}

struct row
{
  std::string name;
  uint32_t gates = 0, luts = 0;
  double ta_base = 0, tl_base = 0, ta_stp = 0, tl_stp = 0;
};

double geomean(const std::vector<double>& xs)
{
  double log_sum = 0;
  for (const double x : xs) {
    log_sum += std::log(std::max(x, 1e-9));
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace

int main(int argc, char** argv)
{
  using namespace stps;
  uint64_t num_patterns = uint64_t{1} << 17u;
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--patterns") == 0) {
      num_patterns = std::stoull(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[i + 1];
    }
  }

  std::printf("Table I: circuit simulation, EPFL suite, %llu random "
              "patterns (paper: 10^6)\n",
              static_cast<unsigned long long>(num_patterns));
  std::printf("%-11s | %9s %9s %6s | %9s %9s %6s\n", "Benchmark",
              "TA-base", "TA-STP", "x", "TL-base", "TL-STP", "x");
  std::printf("------------+------------------------------+---------------"
              "---------------\n");

  std::vector<row> rows;
  const core::stp_simulator stp_sim;
  uint32_t mismatches = 0;
  for (const auto& name : gen::epfl_names()) {
    const net::aig_network aig = gen::make_epfl(name);
    const cut::lut_map_result mapped = cut::lut_map(aig, 6u);
    const sim::pattern_set patterns =
        sim::pattern_set::random(aig.num_pis(), num_patterns, 0xEDF1u);
    const auto check = [&](bool same, const char* simulator) {
      if (!same) {
        ++mismatches;
        std::fprintf(stderr,
                     "%s: %s PO signatures differ from simulate_aig\n",
                     name.c_str(), simulator);
      }
    };

    row r;
    r.name = name;
    r.gates = aig.num_gates();
    r.luts = mapped.klut.num_gates();
    sim::signature_store sig;
    r.ta_base =
        time_call(sig, [&] { return sim::simulate_aig(aig, patterns); });
    const std::vector<uint64_t> reference =
        aig_po_words(aig, sig, num_patterns);
    r.ta_stp =
        time_call(sig, [&] { return stp_sim.simulate_aig(aig, patterns); });
    check(aig_po_words(aig, sig, num_patterns) == reference, "STP AIG");
    r.tl_base = time_call(sig, [&] {
      return sim::simulate_klut_bitwise(mapped.klut, patterns);
    });
    check(klut_po_words(mapped.klut, sig) == reference, "bitwise k-LUT");
    r.tl_stp = time_call(
        sig, [&] { return stp_sim.simulate_all(mapped.klut, patterns); });
    check(klut_po_words(mapped.klut, sig) == reference, "STP k-LUT");
    rows.push_back(r);
    std::printf("%-11s | %9.3f %9.3f %6.2f | %9.3f %9.3f %6.2f\n",
                name.c_str(), r.ta_base, r.ta_stp, r.ta_base / r.ta_stp,
                r.tl_base, r.tl_stp, r.tl_base / r.tl_stp);
  }

  std::vector<double> ta_base, ta_stp, tl_base, tl_stp, ta_x, tl_x;
  for (const row& r : rows) {
    ta_base.push_back(r.ta_base);
    ta_stp.push_back(r.ta_stp);
    tl_base.push_back(r.tl_base);
    tl_stp.push_back(r.tl_stp);
    ta_x.push_back(r.ta_base / r.ta_stp);
    tl_x.push_back(r.tl_base / r.tl_stp);
  }
  std::printf("------------+------------------------------+---------------"
              "---------------\n");
  std::printf("%-11s | %9.3f %9.3f %6s | %9.3f %9.3f %6s\n", "Geo.",
              geomean(ta_base), geomean(ta_stp), "", geomean(tl_base),
              geomean(tl_stp), "");
  std::printf("%-11s | %27.2fx | %27.2fx\n", "Imp.", geomean(ta_x),
              geomean(tl_x));
  std::printf("\npaper reference: TA improvement 0.99x, TL improvement "
              "7.18x (max 22.04x)\n");
  if (mismatches != 0u) {
    std::fprintf(stderr, "table1_simulation: %u simulator result(s) differ "
                         "from simulate_aig\n",
                 mismatches);
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"table1_simulation\",\n"
                    "  \"patterns\": %llu,\n  \"benchmarks\": [\n",
                 static_cast<unsigned long long>(num_patterns));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"gates\": %u, \"luts\": %u, "
                   "\"ta_base_seconds\": %.6f, \"ta_stp_seconds\": %.6f, "
                   "\"tl_base_seconds\": %.6f, \"tl_stp_seconds\": %.6f}%s\n",
                   r.name.c_str(), r.gates, r.luts, r.ta_base, r.ta_stp,
                   r.tl_base, r.tl_stp, i + 1u == rows.size() ? "" : ",");
    }
    std::fprintf(f,
                 "  ],\n  \"geomean\": {\"ta_improvement\": %.4f, "
                 "\"tl_improvement\": %.4f}\n}\n",
                 geomean(ta_x), geomean(tl_x));
    std::fclose(f);
  }
  return 0;
}
