/// \file table2_sweeping.cpp
/// \brief Regenerates Table II: SAT calls and runtime of the two SAT
/// sweepers on the HWMCC'15/IWLS'05-style suite.
///
/// Columns, as in the paper: circuit statistics (PI/PO, levels, gates,
/// result gates), satisfiable SAT calls ("SAT calls"), total SAT calls,
/// simulation runtime, and total runtime, for the `&fraig`-style baseline
/// and the STP sweeper, plus the geometric means and the improvement
/// ratios (new/old).  Every result is CEC-verified before being printed
/// (the paper verifies with `&cec`).
///
/// The paper's instances are 30k-2M gates; these are scaled-down
/// generated circuits of the same redundancy regime (see DESIGN.md), so
/// absolute numbers differ but the shape — who wins, and that the win
/// comes from fewer satisfiable calls — is the reproduced claim
/// (paper: −91% satisfiable calls, −40% total calls, ~2× sim time,
/// −35% total runtime).
///
/// Every flag — `--json`, `--scale`, `--ablation`, `--only`, the
/// budget and interruption flags, `--threads`/`--shards` — is documented
/// once, in bench/README.md; `--help` prints the usage.  An unknown
/// flag, a missing value or a malformed number prints a message and
/// exits with status 2.
#include "gen/benchmarks.hpp"
#include "network/traversal.hpp"
#include "sweep/cec.hpp"
#include "sweep/fraig.hpp"
#include "sweep/resource_governor.hpp"
#include "sweep/stp_sweeper.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

/// Governor of the sweep/CEC currently running, for the signal handler
/// to trip; null between runs (an interrupt then just sets the flag and
/// the row loop exits at its next check).
std::atomic<stps::sweep::resource_governor*> g_active_governor{nullptr};
std::atomic<bool> g_interrupted{false};

extern "C" void on_interrupt(int)
{
  // Async-signal-safe: two relaxed atomic stores, nothing else.
  g_interrupted.store(true, std::memory_order_relaxed);
  stps::sweep::resource_governor* g =
      g_active_governor.load(std::memory_order_relaxed);
  if (g != nullptr) {
    g->request_stop();
  }
}

double geomean(const std::vector<double>& xs)
{
  double log_sum = 0;
  for (const double x : xs) {
    log_sum += std::log(std::max(x, 1e-9));
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

struct json_row
{
  std::string name;
  uint32_t pis, pos, levels, gates, result_gates;
  stps::sweep::sweep_stats fraig, stp;
  bool verified;
  bool have_flags_off = false;
  stps::sweep::sweep_stats stp_flags_off;
  bool ablation_match = false;
};

void write_value(std::FILE* f, uint64_t v)
{
  std::fprintf(f, "%llu", static_cast<unsigned long long>(v));
}
void write_value(std::FILE* f, uint32_t v) { std::fprintf(f, "%u", v); }
void write_value(std::FILE* f, double v) { std::fprintf(f, "%.6f", v); }
void write_value(std::FILE* f, stps::sweep::sweep_outcome v)
{
  std::fprintf(f, "\"%s\"", stps::sweep::sweep_outcome_name(v));
}
void write_value(std::FILE* f, const std::vector<double>& v)
{
  std::fputc('[', f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.6f", i == 0u ? "" : ", ", v[i]);
  }
  std::fputc(']', f);
}

/// One engine object: every counter of the sweep_stats counter table
/// whose scope the engine fills — fraig has no phase seeding or shards,
/// so it omits the STP-only keys.
void write_engine_json(std::FILE* f, const char* key,
                       const stps::sweep::sweep_stats& s)
{
  using stps::sweep::counter_scope;
  std::fprintf(f, "      \"%s\": {", key);
  const char* sep = "";
  stps::sweep::for_each_counter(
      [&](const char* name, auto field, counter_scope scope) {
        const bool emitted =
            scope == counter_scope::all ||
            (scope == counter_scope::stp && !s.worker_sat_seconds.empty());
        if (emitted) {
          std::fprintf(f, "%s\"%s\": ", sep, name);
          write_value(f, s.*field);
          sep = ", ";
        }
      });
  std::fputc('}', f);
}

bool write_json(const std::string& path, uint64_t base_patterns,
                uint32_t scale, const std::vector<json_row>& rows,
                bool interrupted)
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"table2_sweeping\",\n"
                  "  \"patterns\": %llu,\n  \"scale\": %u,\n"
                  "  \"interrupted\": %s,\n"
                  "  \"benchmarks\": [\n",
               static_cast<unsigned long long>(base_patterns), scale,
               interrupted ? "true" : "false");
  std::vector<double> time_f, time_s, sat_f, sat_s;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const json_row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"pis\": %u, \"pos\": %u, "
                 "\"levels\": %u, \"gates\": %u, \"result_gates\": %u, "
                 "\"cec_verified\": %s,\n",
                 r.name.c_str(), r.pis, r.pos, r.levels, r.gates,
                 r.result_gates, r.verified ? "true" : "false");
    write_engine_json(f, "fraig", r.fraig);
    std::fprintf(f, ",\n");
    write_engine_json(f, "stp", r.stp);
    if (r.have_flags_off) {
      std::fprintf(f, ",\n");
      write_engine_json(f, "stp_flags_off", r.stp_flags_off);
      std::fprintf(f, ",\n      \"ablation_match\": %s",
                   r.ablation_match ? "true" : "false");
    }
    std::fprintf(f, "\n    }%s\n", i + 1u == rows.size() ? "" : ",");
    time_f.push_back(r.fraig.total_seconds);
    time_s.push_back(r.stp.total_seconds);
    sat_f.push_back(static_cast<double>(r.fraig.sat_calls_satisfiable) + 1.0);
    sat_s.push_back(static_cast<double>(r.stp.sat_calls_satisfiable) + 1.0);
  }
  std::fprintf(f, "  ]");
  // An interrupted run may have zero completed rows; a geomean over an
  // empty set is meaningless, so the key is simply absent then.
  if (!rows.empty()) {
    std::fprintf(f,
                 ",\n  \"geomean\": {\"fraig_total_seconds\": %.6f, "
                 "\"stp_total_seconds\": %.6f, \"runtime_ratio\": %.4f, "
                 "\"satisfiable_ratio\": %.4f}",
                 geomean(time_f), geomean(time_s),
                 geomean(time_s) / geomean(time_f),
                 geomean(sat_s) / geomean(sat_f));
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

/// Registers \p g as the signal handler's stop target for the duration
/// of one sweep/CEC call.
class governed_scope
{
public:
  explicit governed_scope(stps::sweep::resource_governor& g)
  {
    g_active_governor.store(&g, std::memory_order_relaxed);
  }
  ~governed_scope()
  {
    g_active_governor.store(nullptr, std::memory_order_relaxed);
  }
  governed_scope(const governed_scope&) = delete;
  governed_scope& operator=(const governed_scope&) = delete;
};

const char* const usage =
    "usage: table2_sweeping [--patterns N] [--scale N] [--only SUBSTR]... "
    "[--ablation]\n"
    "                       [--json PATH] [--threads N] [--shards N] "
    "[--deadline SEC]\n"
    "                       [--conflict-budget N] "
    "[--conflict-budget-total N]\n"
    "                       [--sat-reduce 0|1] [--sat-inprocess 0|1] "
    "[--help]\n"
    "See bench/README.md for what each flag does.\n";

/// Whole-string number parse: false on an empty, partial or
/// out-of-range value.
template <typename T>
bool parse_number(const char* text, T& out)
{
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end && ptr != text;
}

bool parse_switch(const char* text, bool& out)
{
  uint32_t value = 0;
  if (!parse_number(text, value) || value > 1u) {
    return false;
  }
  out = value == 1u;
  return true;
}

} // namespace

int main(int argc, char** argv)
{
  using namespace stps;
  uint64_t base_patterns = 1024u;
  uint32_t scale = 0;
  bool ablation = false;
  std::string json_path;
  std::vector<std::string> only;
  double deadline_seconds = 0.0;       // 0 = no deadline
  uint64_t conflict_budget_total = 0u; // 0 = unlimited global pool
  int64_t conflict_budget = -1;        // per query; -1 = unlimited
  uint32_t threads = 1;                // STP SAT-phase worker threads
  uint32_t shards = 0;                 // 0 = one shard per thread
  bool sat_reduce = true;              // solver learnt-clause reduction
  bool sat_inprocess = true;           // between-query inprocessing
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The value of a flag that takes one; a missing value ends the run.
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", arg.c_str(), usage);
        std::exit(2);
      }
      return argv[++i];
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage, stdout);
      return 0;
    } else if (arg == "--ablation") {
      ablation = true;
    } else if (arg == "--patterns") {
      ok = parse_number(value(), base_patterns);
    } else if (arg == "--deadline") {
      ok = parse_number(value(), deadline_seconds) && deadline_seconds >= 0.0;
    } else if (arg == "--conflict-budget") {
      ok = parse_number(value(), conflict_budget);
    } else if (arg == "--conflict-budget-total") {
      ok = parse_number(value(), conflict_budget_total);
    } else if (arg == "--threads") {
      ok = parse_number(value(), threads);
    } else if (arg == "--shards") {
      ok = parse_number(value(), shards);
    } else if (arg == "--sat-reduce") {
      ok = parse_switch(value(), sat_reduce);
    } else if (arg == "--sat-inprocess") {
      ok = parse_switch(value(), sat_inprocess);
    } else if (arg == "--scale") {
      ok = parse_number(value(), scale);
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--only") {
      only.emplace_back(value());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n%s", arg.c_str(), usage);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", arg.c_str(), argv[i]);
      return 2;
    }
  }
  scale = std::min(scale, gen::max_sweep_scale); // keep recorded scale honest

  // Ctrl-C / SIGTERM trip the active sweep's governor: the in-flight
  // query finishes, proven merges are kept, and the partial JSON is
  // still written (with "interrupted": true).
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGTERM, on_interrupt);
  sweep::governor_limits limits;
  limits.deadline_seconds = deadline_seconds;
  limits.conflict_budget_total = conflict_budget_total;

  const auto selected = [&](const std::string& name) {
    if (only.empty()) {
      return true;
    }
    for (const std::string& pat : only) {
      if (name.find(pat) != std::string::npos) {
        return true;
      }
    }
    return false;
  };

  std::printf("Table II: SAT sweeping, %llu initial patterns, scale %u "
              "(generated instances; see bench/README.md)\n\n",
              static_cast<unsigned long long>(base_patterns), scale);
  std::printf("%-13s %11s %5s %7s %7s | %7s %7s | %8s %8s | %7s %7s | "
              "%7s %7s %5s\n",
              "Benchmark", "PI/PO", "Lev", "Gate", "Result", "sat-F",
              "sat-S", "tot-F", "tot-S", "sim-F", "sim-S", "time-F",
              "time-S", "x");

  std::vector<double> g_sat_f, g_sat_s, g_tot_f, g_tot_s, g_sim_f, g_sim_s,
      g_time_f, g_time_s, g_gate, g_result;
  bool all_verified = true;
  std::vector<json_row> json_rows;

  for (const auto& name : gen::sweep_names(scale)) {
    if (g_interrupted.load(std::memory_order_relaxed)) {
      break;
    }
    if (!selected(name)) {
      continue;
    }
    const net::aig_network original = gen::make_sweep_benchmark(name);

    net::aig_network by_fraig = original;
    sweep::resource_governor fraig_gov{limits};
    sweep::fraig_params fraig_params{base_patterns, 1u, conflict_budget};
    fraig_params.governor = &fraig_gov;
    sweep::sweep_stats fs;
    {
      const governed_scope scope{fraig_gov};
      fs = sweep::fraig_sweep(by_fraig, fraig_params);
    }

    net::aig_network by_stp = original;
    sweep::resource_governor stp_gov{limits};
    sweep::stp_sweep_params params;
    params.guided.base_patterns = base_patterns;
    params.conflict_budget = conflict_budget;
    params.threads = threads;
    params.sat_shards = shards;
    params.sat_reduce = sat_reduce;
    params.sat_inprocess = sat_inprocess;
    params.governor = &stp_gov;
    sweep::sweep_stats ss;
    {
      const governed_scope scope{stp_gov};
      ss = sweep::stp_sweep(by_stp, params);
    }

    // Verification gets its own interrupt-only governor (no deadline or
    // budget: a partial sweep result still deserves a full CEC) so
    // Ctrl-C during the check also winds down cleanly.
    sweep::resource_governor cec_gov{};
    sweep::cec_params cec_config;
    cec_config.governor = &cec_gov;
    bool ok;
    {
      const governed_scope scope{cec_gov};
      ok = sweep::check_equivalence(original, by_fraig, cec_config)
               .equivalent &&
           sweep::check_equivalence(original, by_stp, cec_config).equivalent;
    }

    // Ablation proof: flags off (per-query scratch CNF, no garbage
    // epochs, no signature phase seeding, unrestricted decisions, flat
    // window support, no learnt reduction or inprocessing) must land on
    // exactly the same result network size, and be CEC-equivalent — the
    // flags only change when and where work is paid, or which (equally
    // valid) counter-examples steer the refinement there.
    sweep::sweep_stats as;
    bool ablation_match = false;
    if (ablation) {
      net::aig_network by_stp_off = original;
      sweep::stp_sweep_params off = params;
      off.use_incremental_cnf = false;
      off.sat_clause_budget = 0u;
      off.use_signature_phase = false;
      off.use_cone_scoped_decisions = false;
      off.window_scale_gates = 0u; // flat window support
      off.sat_reduce = false;      // epoch-only learnt retention
      off.sat_inprocess = false;   // no between-query simplification
      // Fresh governor, same limits: the main run may have spent its
      // budget, and the ablation re-sweep deserves the full allowance.
      sweep::resource_governor abl_gov{limits};
      off.governor = &abl_gov;
      {
        const governed_scope scope{abl_gov};
        as = sweep::stp_sweep(by_stp_off, off);
      }
      ablation_match = as.gates_after == ss.gates_after;
      sweep::resource_governor abl_cec_gov{};
      sweep::cec_params abl_cec_config;
      abl_cec_config.governor = &abl_cec_gov;
      const governed_scope scope{abl_cec_gov};
      ok = ok && ablation_match &&
           sweep::check_equivalence(original, by_stp_off, abl_cec_config)
               .equivalent;
    }
    if (g_interrupted.load(std::memory_order_relaxed)) {
      break; // drop the in-flight row; completed rows are kept
    }
    all_verified = all_verified && ok;

    char pipo[32];
    std::snprintf(pipo, sizeof pipo, "%u/%u", original.num_pis(),
                  original.num_pos());
    // Flag rows whose sweeps ended early — their counters describe a
    // sound partial result, not a full sweep.
    char outcome_note[48] = "";
    if (fs.outcome != sweep::sweep_outcome::complete ||
        ss.outcome != sweep::sweep_outcome::complete) {
      std::snprintf(outcome_note, sizeof outcome_note, "  [F:%s S:%s]",
                    sweep::sweep_outcome_name(fs.outcome),
                    sweep::sweep_outcome_name(ss.outcome));
    }
    std::printf("%-13s %11s %5u %7u %7u | %7llu %7llu | %8llu %8llu | "
                "%7.3f %7.3f | %7.3f %7.3f %5.2f%s%s\n",
                name.c_str(), pipo, fs.levels_before, fs.gates_before,
                ss.gates_after,
                static_cast<unsigned long long>(fs.sat_calls_satisfiable),
                static_cast<unsigned long long>(ss.sat_calls_satisfiable),
                static_cast<unsigned long long>(fs.sat_calls_total),
                static_cast<unsigned long long>(ss.sat_calls_total),
                fs.sim_seconds, ss.sim_seconds, fs.total_seconds,
                ss.total_seconds, ss.total_seconds / fs.total_seconds,
                outcome_note, ok ? "" : "  [CEC FAILED]");

    json_rows.push_back({name, original.num_pis(), original.num_pos(),
                         fs.levels_before, fs.gates_before, ss.gates_after,
                         fs, ss, ok, ablation, as, ablation_match});
    g_sat_f.push_back(static_cast<double>(fs.sat_calls_satisfiable) + 1.0);
    g_sat_s.push_back(static_cast<double>(ss.sat_calls_satisfiable) + 1.0);
    g_tot_f.push_back(static_cast<double>(fs.sat_calls_total) + 1.0);
    g_tot_s.push_back(static_cast<double>(ss.sat_calls_total) + 1.0);
    g_sim_f.push_back(fs.sim_seconds);
    g_sim_s.push_back(ss.sim_seconds);
    g_time_f.push_back(fs.total_seconds);
    g_time_s.push_back(ss.total_seconds);
    g_gate.push_back(fs.gates_before);
    g_result.push_back(ss.gates_after);
  }

  const bool interrupted = g_interrupted.load(std::memory_order_relaxed);
  if (json_rows.empty() && !interrupted) {
    std::fprintf(stderr, "no benchmarks matched --only\n");
    return 1;
  }
  if (!json_rows.empty()) {
    std::printf("\n%-13s gates %.0f -> %.0f (geo)\n", "Geo.",
                geomean(g_gate), geomean(g_result));
    std::printf("satisfiable SAT calls: %8.0f -> %8.0f   Imp. %.2f "
                "(paper: 0.09)\n",
                geomean(g_sat_f), geomean(g_sat_s),
                geomean(g_sat_s) / geomean(g_sat_f));
    std::printf("total SAT calls:       %8.0f -> %8.0f   Imp. %.2f "
                "(paper: 0.60)\n",
                geomean(g_tot_f), geomean(g_tot_s),
                geomean(g_tot_s) / geomean(g_tot_f));
    std::printf("simulation runtime:    %8.3f -> %8.3f   Imp. %.2f "
                "(paper: 1.99)\n",
                geomean(g_sim_f), geomean(g_sim_s),
                geomean(g_sim_s) / geomean(g_sim_f));
    std::printf("total runtime:         %8.3f -> %8.3f   Imp. %.2f "
                "(paper: 0.65)\n",
                geomean(g_time_f), geomean(g_time_s),
                geomean(g_time_s) / geomean(g_time_f));
    std::printf("\nall results CEC-verified: %s\n",
                all_verified ? "yes" : "NO — BUG");
  }
  if (interrupted) {
    std::printf("\ninterrupted — %zu completed row%s kept, in-flight row "
                "dropped\n",
                json_rows.size(), json_rows.size() == 1u ? "" : "s");
  }
  if (!json_path.empty() &&
      !write_json(json_path, base_patterns, scale, json_rows, interrupted)) {
    return 1;
  }
  if (interrupted) {
    return 130; // conventional SIGINT exit status
  }
  return all_verified ? 0 : 1;
}
