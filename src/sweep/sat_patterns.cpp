#include "sweep/sat_patterns.hpp"

#include "sim/bitwise_sim.hpp"
#include "sweep/worker_pool.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <utility>

namespace stps::sweep {

namespace {

/// FNV-1a over complement-normalized signature words.
constexpr uint64_t fnv_basis = 1469598103934665603ull;
constexpr uint64_t fnv_prime = 1099511628211ull;

/// Every node's signature while the rounds run: the random base is
/// simulated once, and each witness lands in a `sim::open_word` column.
/// Just before a full open word is reused, it is folded into two
/// per-node values — a running popcount and a running FNV-1a state of
/// the words flipped by the node's first pattern bit — so the rounds
/// read exact whole-signature counts and group keys from the folded
/// values plus the masked column.
class guided_signatures
{
public:
  guided_signatures(const net::aig_network& aig,
                    const sim::pattern_set& base, const sim::resim_plan& plan)
      : open_{base, plan}, ones_(plan.size, 0u), hash_(plan.size, fnv_basis),
        flip_(plan.size, 0u)
  {
    // Every base word but the last is closed; the column holds the last.
    const sim::signature_store sig = sim::simulate_aig(aig, base);
    closed_words_ = sig.num_words() != 0u ? sig.num_words() - 1u : 0u;
    for (std::size_t n = 0; n < sig.size(); ++n) {
      for (std::size_t w = 0; w < closed_words_; ++w) {
        fold(n, sig.word(n, w), w == 0u);
      }
    }
  }

  /// Appends one witness; a full open word is folded first.
  void add_pattern(const std::vector<bool>& witness)
  {
    if (open_.full() && open_.num_patterns() != 0u) {
      const std::span<const uint64_t> column = open_.column();
      for (std::size_t n = 0; n < column.size(); ++n) {
        fold(n, column[n], closed_words_ == 0u);
      }
      ++closed_words_;
    }
    open_.add_pattern(witness);
  }

  uint64_t num_patterns() const noexcept { return open_.num_patterns(); }

  /// Number of ones in node \p n's signature.
  uint64_t ones(net::node n) const noexcept
  {
    const uint64_t open_bits =
        num_patterns() != 0u ? open_.column()[n] & open_.mask() : 0u;
    return ones_[n] + std::popcount(open_bits);
  }

  /// Complement-normalized signature hash (FNV-1a over the words, each
  /// flipped by the first pattern bit; needs a pattern): a gate and its
  /// inversion land in one group, exactly like the candidate equivalence
  /// classes they would later form.
  uint64_t group_key(net::node n) const noexcept
  {
    const uint64_t word = open_.column()[n];
    const uint64_t flip = closed_words_ != 0u ? flip_[n] : first_bit(word);
    return (hash_[n] ^ ((word ^ flip) & open_.mask())) * fnv_prime;
  }

  /// Node \p n's value under the newest pattern (-1 if none).
  int newest_bit(net::node n) const noexcept
  {
    if (n >= ones_.size() || num_patterns() == 0u) {
      return -1;
    }
    const uint64_t bit = (num_patterns() - 1u) & 63u;
    return static_cast<int>((open_.column()[n] >> bit) & 1u);
  }

private:
  static uint64_t first_bit(uint64_t word) noexcept
  {
    return (word & 1u) != 0u ? ~uint64_t{0} : 0u;
  }

  /// Folds one full word of node \p n; \p first marks its word 0.
  void fold(std::size_t n, uint64_t word, bool first) noexcept
  {
    if (first) {
      flip_[n] = first_bit(word);
    }
    ones_[n] += std::popcount(word);
    hash_[n] = (hash_[n] ^ (word ^ flip_[n])) * fnv_prime;
  }

  sim::open_word open_;
  std::vector<uint64_t> ones_;  ///< popcount over the closed words
  std::vector<uint64_t> hash_;  ///< FNV-1a state over the closed words
  std::vector<uint64_t> flip_;  ///< first pattern bit as a word mask
  std::size_t closed_words_ = 0;
};

/// The random base both guidance rounds start from.
sim::pattern_set base_patterns(const net::aig_network& aig,
                               const guided_pattern_config& config)
{
  return sim::pattern_set::random(aig.num_pis(), config.base_patterns,
                                  config.seed);
}

/// Both guidance rounds over slice \p slice of \p slices: the gates
/// whose index in `foreach_gate` order is \p slice modulo \p slices
/// (one slice is every gate).  \p aig is never modified here, so \p plan
/// — its resimulation snapshot — stays exact for every witness.
guided_pattern_result guided_rounds(const net::aig_network& aig,
                                    sat::cnf_manager& cnf,
                                    const guided_pattern_config& config,
                                    const sim::resim_plan& plan,
                                    uint32_t slice, uint32_t slices)
{
  guided_pattern_result result;
  result.patterns = base_patterns(aig, config);

  // Deadline/budget/cancellation poll — once tripped, both rounds stop
  // issuing queries and the patterns collected so far are returned.
  const auto stopped = [governor = config.governor]() {
    return governor != nullptr && governor->should_stop();
  };

  std::vector<bool> proven(aig.size(), false);
  std::vector<net::node> gates;
  {
    uint32_t index = 0;
    aig.foreach_gate([&](net::node n) {
      if (index++ % slices == slice) {
        gates.push_back(n);
      }
    });
  }

  // Witnesses are absorbed the moment SAT hands them back, so every
  // later candidate checks against up-to-date signatures.  Near-constant
  // gates are strongly correlated — one witness typically toggles many of
  // them at once — and with stale signatures each used to cost its own
  // satisfiable SAT query.
  auto t_sim = sweep_clock::now();
  guided_signatures sig{aig, result.patterns, plan};
  result.sim_seconds += seconds_since(t_sim);

  // Signature-phase seeding for the guided queries themselves: every
  // witness is absorbed by a whole-AIG resimulation of the open word, so
  // the newest pattern's bit is current for *every* node — one
  // consistent assignment to start each query from.  Cleared before
  // returning (`sig` dies with this call; the sweeper installs its own
  // hints).
  struct hint_guard
  {
    sat::cnf_manager* cnf = nullptr;
    ~hint_guard()
    {
      if (cnf != nullptr) {
        cnf->set_phase_hints(nullptr);
      }
    }
  } clear_hints_on_exit{config.use_signature_phase ? &cnf : nullptr};
  if (config.use_signature_phase) {
    cnf.set_phase_hints(
        [&sig](net::node n) -> int { return sig.newest_bit(n); });
  }

  const auto absorb_witness = [&](const std::vector<bool>& witness) {
    const auto t_ce = sweep_clock::now();
    result.patterns.add_pattern(witness);
    sig.add_pattern(witness);
    result.sim_seconds += seconds_since(t_ce);
    ++result.patterns_added;
  };

  // ---- Round 1: eliminate false constant candidates. -------------------
  // Incremental absorption makes one pass converge: a second iteration
  // would find every signature already current (the loop remains for
  // configs that cap witnesses below convergence).
  for (uint32_t iter = 0; iter < config.round1_iterations && !stopped();
       ++iter) {
    bool any_witness = false;
    for (const net::node n : gates) {
      if (proven[n] || stopped()) {
        continue;
      }
      const uint64_t ones = sig.ones(n);
      if (ones != 0u && ones != result.patterns.num_patterns()) {
        continue; // signature already toggles
      }
      const bool looks_constant = ones != 0u;
      ++result.sat_calls;
      // One query settles it: SAT hands back a witness pattern breaking
      // the false candidacy, UNSAT proves the constant.
      const auto t_sat = sweep_clock::now();
      const sat::result r = cnf.prove_constant(
          net::signal{n, false}, looks_constant, config.conflict_budget);
      result.sat_seconds += seconds_since(t_sat);
      if (r == sat::result::sat) {
        ++result.satisfiable_calls;
        absorb_witness(cnf.model_inputs());
        any_witness = true;
      } else if (r == sat::result::unsat) {
        proven[n] = true;
        result.proven_constants.emplace_back(n, looks_constant);
      }
    }
    if (!any_witness) {
      break;
    }
  }

  // ---- Round 2: break up near-constant signatures. ----------------------
  // A candidate still near-constant *right now* (signatures evolve as
  // witnesses absorb) gets a guided query toward its minority value.
  // \p ones returns the popcount so callers don't re-scan the signature.
  const auto near_constant = [&](net::node n, bool& toward_ones,
                                 uint64_t& ones) {
    const uint64_t total = result.patterns.num_patterns();
    ones = sig.ones(n);
    const bool few_ones = ones != 0u && ones <= config.round2_ones_threshold;
    const bool few_zeros =
        ones != total && total - ones <= config.round2_ones_threshold;
    toward_ones = few_ones;
    return few_ones || few_zeros;
  };

  if (stopped()) {
    return result;
  }

  // Entropy-ranked group targeting: gates with identical (up to
  // complement) signatures are one prospective equivalence class — any
  // single witness that toggles one member toggles them all, so the
  // group earns *one* query, aimed at its first member that is still
  // near-constant when its turn comes.  Groups are ranked by minority
  // count (lowest entropy first): the most constant-looking signatures
  // are both the likeliest false candidates and the cheapest queries.
  struct round2_group
  {
    uint64_t minority;  ///< entropy rank at collection time
    net::node first;    ///< lowest member (deterministic tie-break)
    std::vector<net::node> members;
  };
  std::vector<round2_group> groups;
  {
    std::unordered_map<uint64_t, std::size_t> group_of_key;
    const uint64_t total = result.patterns.num_patterns();
    for (const net::node n : gates) {
      bool toward_ones = false;
      uint64_t ones = 0;
      if (proven[n] || !near_constant(n, toward_ones, ones)) {
        continue;
      }
      const uint64_t minority = std::min(ones, total - ones);
      const uint64_t key = sig.group_key(n);
      const auto [it, inserted] = group_of_key.emplace(key, groups.size());
      if (inserted) {
        groups.push_back({minority, n, {n}});
      } else {
        groups[it->second].members.push_back(n);
      }
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const round2_group& a, const round2_group& b) {
              return a.minority != b.minority ? a.minority < b.minority
                                              : a.first < b.first;
            });
  std::size_t queries = 0;
  for (const round2_group& group : groups) {
    if (queries >= config.max_round2_queries || stopped()) {
      break;
    }
    // Earlier groups' witnesses may already have diversified this one;
    // query the first member the toggles missed, if any.
    for (const net::node n : group.members) {
      bool toward_ones = false;
      uint64_t ones = 0;
      if (!near_constant(n, toward_ones, ones)) {
        continue;
      }
      ++queries;
      ++result.sat_calls;
      const auto t_sat = sweep_clock::now();
      const auto witness = cnf.find_assignment(
          net::signal{n, false}, toward_ones, config.conflict_budget);
      result.sat_seconds += seconds_since(t_sat);
      if (witness.has_value()) {
        ++result.satisfiable_calls;
        absorb_witness(*witness);
      }
      break;
    }
  }

  return result;
}

/// Alg. 2 line 3 and the books: substitutes every proven constant of
/// \p result into \p aig (in the result's order), books its queries and
/// seconds in \p stats, and returns its patterns.
sim::pattern_set apply_prologue(net::aig_network& aig,
                                guided_pattern_result result,
                                sweep_clock::time_point t_prologue,
                                sweep_stats& stats)
{
  for (const auto& [n, value] : result.proven_constants) {
    if (!aig.is_dead(n)) {
      ++stats.constant_merges;
      ++stats.merges;
      aig.substitute_node(n, aig.get_constant(value));
    }
  }
  stats.sat_calls_total += result.sat_calls;
  stats.prologue_sat_calls += result.sat_calls;
  stats.prologue_satisfiable_calls += result.satisfiable_calls;
  stats.sim_seconds += result.sim_seconds;
  stats.sat_seconds += result.sat_seconds;
  stats.prologue_seconds += seconds_since(t_prologue);
  return std::move(result.patterns);
}

} // namespace

guided_pattern_result sat_guided_patterns(const net::aig_network& aig,
                                          sat::cnf_manager& cnf,
                                          const guided_pattern_config& config)
{
  const auto t_plan = sweep_clock::now();
  const sim::resim_plan plan = sim::make_resim_plan(aig);
  const double plan_seconds = seconds_since(t_plan);
  guided_pattern_result result =
      guided_rounds(aig, cnf, config, plan, 0u, 1u);
  result.sim_seconds += plan_seconds;
  return result;
}

guided_pattern_result sharded_guided_patterns(
    const net::aig_network& aig, const sat::cnf_manager::params& cnf_params,
    const guided_pattern_config& config, uint32_t shards, worker_pool& pool,
    sweep_stats& sat_counters)
{
  guided_pattern_config slice_config = config;
  slice_config.max_round2_queries =
      config.max_round2_queries / shards +
      (config.max_round2_queries % shards != 0u ? 1u : 0u);
  guided_pattern_result merged;
  const auto t_plan = sweep_clock::now();
  const sim::resim_plan plan = sim::make_resim_plan(aig);
  merged.sim_seconds += seconds_since(t_plan);

  std::vector<guided_pattern_result> parts(shards);
  std::vector<sweep_stats> part_counters(shards);
  pool.run(shards, [&](std::size_t s) {
    sat::cnf_manager cnf{aig, cnf_params};
    parts[s] = guided_rounds(aig, cnf, slice_config, plan,
                             static_cast<uint32_t>(s), shards);
    fill_cnf_stats(part_counters[s], cnf);
  });

  // Canonical merge: the base, then each slice's witnesses in shard
  // order, then the union of proven constants in ascending node id.
  merged.patterns = base_patterns(aig, config);
  const uint64_t base = merged.patterns.num_patterns();
  std::vector<bool> witness(aig.num_pis());
  for (uint32_t s = 0; s < shards; ++s) {
    const guided_pattern_result& part = parts[s];
    for (uint64_t p = base; p < part.patterns.num_patterns(); ++p) {
      for (uint32_t i = 0; i < aig.num_pis(); ++i) {
        witness[i] = part.patterns.bit(i, p);
      }
      merged.patterns.add_pattern(witness);
    }
    merged.proven_constants.insert(merged.proven_constants.end(),
                                   part.proven_constants.begin(),
                                   part.proven_constants.end());
    merged.sat_calls += part.sat_calls;
    merged.satisfiable_calls += part.satisfiable_calls;
    merged.patterns_added += part.patterns_added;
    merged.sim_seconds += part.sim_seconds;
    merged.sat_seconds += part.sat_seconds;
    add_counters(sat_counters, part_counters[s]);
  }
  std::sort(merged.proven_constants.begin(), merged.proven_constants.end());
  return merged;
}

sim::pattern_set initial_patterns(net::aig_network& aig,
                                  sat::cnf_manager& cnf,
                                  const guided_pattern_config& config,
                                  bool guided, sweep_stats& stats)
{
  if (!guided) {
    return base_patterns(aig, config);
  }
  const auto t_prologue = sweep_clock::now();
  guided_pattern_result result = sat_guided_patterns(aig, cnf, config);
  return apply_prologue(aig, std::move(result), t_prologue, stats);
}

sim::pattern_set sharded_initial_patterns(
    net::aig_network& aig, const sat::cnf_manager::params& cnf_params,
    const guided_pattern_config& config, bool guided, uint32_t shards,
    worker_pool& pool, sweep_stats& stats)
{
  if (!guided) {
    return base_patterns(aig, config);
  }
  const auto t_prologue = sweep_clock::now();
  guided_pattern_result result =
      sharded_guided_patterns(aig, cnf_params, config, shards, pool, stats);
  return apply_prologue(aig, std::move(result), t_prologue, stats);
}

} // namespace stps::sweep
