#include "sweep/stp_sweeper.hpp"

#include "core/stp_simulator.hpp"
#include "network/traversal.hpp"
#include "sat/cnf_manager.hpp"
#include "sim/bitwise_sim.hpp"
#include "sweep/candidate_loop.hpp"
#include "sweep/equiv_classes.hpp"
#include "sweep/tfi_manager.hpp"
#include "sweep/worker_pool.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

namespace stps::sweep {

namespace {

/// Exact window resolution by one word-parallel exhaustive simulation
/// over the *union* cone of a class (§IV-A, "< 16 leaves"): 64
/// exhaustive patterns per word, every member read off the same pass,
/// so the shared cone is paid once.  Two members get equal keys iff
/// their phase-normalized exhaustive signatures (= truth tables over the
/// window leaves, leaf i = variable i) are identical.
class window_resolver
{
public:
  void attach(const net::aig_network& aig)
  {
    mark_.assign(aig.size(), 0u);
    index_.assign(aig.size(), 0u);
    epoch_ = 0;
  }

  /// Fills \p keys with group ids: keys[i] == keys[j] iff members i and
  /// j implement the same function over \p leaves up to their phases.
  void group_keys(const net::aig_network& aig, const equiv_classes& classes,
                  std::span<const net::node> members,
                  std::span<const net::node> leaves,
                  std::vector<uint64_t>& keys)
  {
    if (++epoch_ == 0u) {
      std::fill(mark_.begin(), mark_.end(), 0u);
      epoch_ = 1u;
    }
    const uint32_t k = static_cast<uint32_t>(leaves.size());
    for (uint32_t i = 0; i < k; ++i) {
      mark_[leaves[i]] = epoch_;
      index_[leaves[i]] = i;
    }

    // Union cone: every gate between the members and the leaves, each
    // visited once no matter how many members share it.
    cone_.clear();
    stack_.clear();
    const auto discover = [&](net::node n) {
      if (!aig.is_constant(n) && mark_[n] != epoch_) {
        mark_[n] = epoch_;
        cone_.push_back(n);
        stack_.push_back(n);
      }
    };
    for (const net::node m : members) {
      discover(m);
    }
    while (!stack_.empty()) {
      const net::node n = stack_.back();
      stack_.pop_back();
      discover(aig.fanin0(n).get_node());
      discover(aig.fanin1(n).get_node());
    }
    // Ids are topological; remove the leaves we re-discovered (they were
    // marked before the DFS, so only gates landed in cone_).
    std::sort(cone_.begin(), cone_.end());
    for (std::size_t i = 0; i < cone_.size(); ++i) {
      index_[cone_[i]] = static_cast<uint32_t>(i) + k;
    }

    const std::size_t nw = k > 6u ? std::size_t{1} << (k - 6u) : 1u;
    const uint64_t valid =
        k < 6u ? (uint64_t{1} << (uint64_t{1} << k)) - 1u : ~uint64_t{0};
    cur_.resize(k + cone_.size());
    sigs_.resize(members.size() * nw);

    for (std::size_t w = 0; w < nw; ++w) {
      for (uint32_t i = 0; i < k; ++i) {
        cur_[i] = leaf_word(i, w);
      }
      const auto value = [&](net::signal s) {
        const net::node x = s.get_node();
        const uint64_t v = aig.is_constant(x) ? 0u : cur_[index_[x]];
        return s.is_complemented() ? ~v : v;
      };
      for (std::size_t i = 0; i < cone_.size(); ++i) {
        const net::node n = cone_[i];
        cur_[k + i] = value(aig.fanin0(n)) & value(aig.fanin1(n));
      }
      for (std::size_t mi = 0; mi < members.size(); ++mi) {
        const net::node m = members[mi];
        uint64_t v = aig.is_constant(m) ? 0u : cur_[index_[m]];
        v ^= classes.phase(m) ? ~uint64_t{0} : 0u;
        sigs_[mi * nw + w] = v & valid;
      }
    }

    // Exact grouping: hash, then verify against the group representative.
    keys.assign(members.size(), 0u);
    group_hash_.clear();
    group_rep_.clear();
    for (std::size_t mi = 0; mi < members.size(); ++mi) {
      const uint64_t* row = sigs_.data() + mi * nw;
      uint64_t h = 1469598103934665603ull;
      for (std::size_t w = 0; w < nw; ++w) {
        h ^= row[w];
        h *= 1099511628211ull;
      }
      uint64_t group = group_hash_.size();
      for (std::size_t g = 0; g < group_hash_.size(); ++g) {
        if (group_hash_[g] == h &&
            std::equal(row, row + nw, sigs_.data() + group_rep_[g] * nw)) {
          group = g;
          break;
        }
      }
      if (group == group_hash_.size()) {
        group_hash_.push_back(h);
        group_rep_.push_back(mi);
      }
      keys[mi] = group;
    }
  }

private:
  static uint64_t leaf_word(uint32_t var, std::size_t w)
  {
    static constexpr uint64_t masks[6] = {
        0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
        0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};
    if (var < 6u) {
      return masks[var];
    }
    return (w >> (var - 6u)) & 1u ? ~uint64_t{0} : 0u;
  }

  std::vector<uint32_t> mark_;  ///< epoch stamps (leaf or cone membership)
  std::vector<uint32_t> index_; ///< leaf position / cone slot per node
  uint32_t epoch_ = 0;
  std::vector<net::node> cone_;
  std::vector<net::node> stack_;
  std::vector<uint64_t> cur_;  ///< current word: leaves then cone gates
  std::vector<uint64_t> sigs_; ///< member signatures, member-major
  std::vector<uint64_t> group_hash_;
  std::vector<std::size_t> group_rep_;
};

/// A merge a shard proved but did not apply: \p n is equivalent to
/// \p target over the frozen input AIG.  The commit pass applies the
/// records in ascending node-id order on the calling thread.
struct merge_record
{
  net::node n;
  net::signal target;
};

/// One shard's SAT-phase pass over a candidate order: the class
/// machinery, counter-example resimulation, window resolution, and the
/// candidate/retry loops of Alg. 2, operating on *owned* counter-example
/// and class state.
///
/// The AIG is frozen (shared read-only by all shards) and proven merges
/// append a `merge_record` instead of rewiring it.  The prologue ran on
/// managers that are gone by now; at every shard count, one included,
/// each core gets private copies of the open word (sim::open_word: one
/// column) and the classes, and a fresh manager of its own.  A shard's
/// trajectory is a pure function of its inputs — independent of how
/// shards are scheduled onto threads.
class sweep_core
{
public:
  sweep_core(const net::aig_network& aig, const stp_sweep_params& params,
             sat::cnf_manager& cnf, sweep_stats& stats,
             uint32_t gates_global, sim::open_word open,
             equiv_classes classes, std::vector<merge_record>& merges)
      : aig_{aig}, params_{params}, cnf_{cnf}, stats_{stats},
        open_{std::move(open)}, classes_{std::move(classes)},
        merges_{merges}, tfi_{aig, params.tfi_limit}
  {
    applied_global_ = open_.num_patterns();
    window_support_ = params_.effective_window_support(gates_global);
    resolver_.attach(aig_);
  }

  /// The candidate loop (reverse topological order, lines 4-32) plus
  /// the escalating unDET retry rounds.
  void run(std::span<const net::node> order)
  {
    aborted_ = run_candidate_loop(
        order, params_, stats_,
        [&](net::node n) {
          return classes_.class_of(n) == equiv_classes::no_class;
        },
        [&](net::node n, int64_t budget, bool allow_defer) {
          return process_candidate(n, budget, allow_defer);
        });
  }

  bool aborted() const noexcept { return aborted_; }

  /// Writes the pass's outcome/CNF/column counters into the stats this
  /// core was constructed over (assignment semantics — the driver sums
  /// the per-shard stats afterwards).
  void finalize_stats()
  {
    if (aborted_ && params_.governor != nullptr) {
      stats_.outcome = params_.governor->outcome();
    }
    fill_cnf_stats(stats_, cnf_);
    stats_.store_peak_bytes = open_.column().size_bytes();
  }

private:
  /// Books a proven merge of \p n onto \p driver (shared counter
  /// bookkeeping of the window and UNSAT paths) and records it for the
  /// deterministic commit pass.
  void merge_candidate(net::node n, net::node driver, bool complement,
                       bool window)
  {
    classes_.remove_member(n);
    if (window) {
      ++stats_.window_merges;
    }
    ++stats_.merges;
    if (aig_.is_constant(driver)) {
      ++stats_.constant_merges;
    }
    merges_.push_back({n, net::signal{driver, complement}});
  }

  // ---- Batched counter-example bookkeeping. --------------------------
  // CEs land in the open word immediately (open_word recomputes every
  // node's bits), but *refinement* is deferred per class: a class is
  // refined only when (b) it is the current candidate's class and needs
  // the fresh bits to make progress, (c) the loop advances to it, or
  // (a) the word fills with 64 CEs and everything is brought up to date
  // at once.
  void mark_applied(uint32_t c, uint64_t count)
  {
    if (c >= class_applied_.size()) {
      class_applied_.resize(c + 1u, 0u);
    }
    class_applied_[c] = count;
  }

  bool class_stale(uint32_t c) const
  {
    const uint64_t applied =
        std::max(applied_global_,
                 c < class_applied_.size() ? class_applied_[c] : 0u);
    return applied < open_.num_patterns();
  }

  void refine_one_class(uint32_t c)
  {
    created_ids_scratch_.clear();
    classes_.refine_class_with_word(c, open_.column(), open_.mask(),
                                    &created_ids_scratch_);
    const uint64_t count = open_.num_patterns();
    mark_applied(c, count);
    for (const uint32_t f : created_ids_scratch_) {
      mark_applied(f, count);
    }
  }

  // Condition (a): bring every class up to date with the filled word.
  void refine_all_classes()
  {
    if (applied_global_ == open_.num_patterns()) {
      return;
    }
    classes_.refine_with_word(open_.column(), open_.mask());
    applied_global_ = open_.num_patterns();
  }

  // ---- Window resolution: class id → (size when checked, exact). -----
  // Scaled windowing: the support limit grows with instance size — on
  // paper-scale instances every satisfiable call a larger exhaustive
  // window avoids is worth far more than the window pass costs.
  bool maybe_resolve(uint32_t c)
  {
    if (c == equiv_classes::no_class) {
      return false;
    }
    const auto& members = classes_.members(c);
    if (const auto it = resolve_cache_.find(c);
        it != resolve_cache_.end() && it->second.first == members.size()) {
      return it->second.second;
    }
    if (!net::bounded_support(aig_, members, window_support_,
                              support_scratch_)) {
      resolve_cache_[c] = {members.size(), false};
      return false;
    }
    // Exhaustive simulation over the window: exact functions of all
    // members over the common support decide the class once and for
    // all.  One word-parallel pass over the members' union cone serves
    // every member (window_resolver above).
    const auto t_win = sweep_clock::now();
    resolve_members_scratch_.assign(members.begin(), members.end());
    resolver_.group_keys(aig_, classes_, resolve_members_scratch_,
                         support_scratch_, resolve_keys_scratch_);
    classes_.split_by_keys(c, resolve_keys_scratch_);
    // Every surviving sub-class is exact now — and, having just been
    // derived from the freshly refined parent, already up to date.
    const uint64_t applied_count = open_.num_patterns();
    for (const net::node m : resolve_members_scratch_) {
      const uint32_t cid = classes_.class_of(m);
      if (cid != equiv_classes::no_class) {
        resolve_cache_[cid] = {classes_.members(cid).size(), true};
        mark_applied(cid, applied_count);
      }
    }
    stats_.sim_seconds += seconds_since(t_win);
    const uint32_t cid_first =
        classes_.class_of(resolve_members_scratch_.front());
    return cid_first != equiv_classes::no_class;
  }

  // One candidate against its class, exactly Alg. 2 lines 5-31 —
  // except that an `unknown` verdict defers instead of marking
  // dont_touch while \p allow_defer holds.  A deferred candidate keeps
  // its class membership: it stays available as a merge *target* for
  // later candidates (merging into an unproven node is sound — only
  // the pairwise proof matters), and a retry round re-enters here with
  // a doubled \p budget.
  cand_status process_candidate(const net::node n, int64_t budget,
                                bool allow_defer)
  {
    for (;;) {
      uint32_t c = classes_.class_of(n);
      if (c == equiv_classes::no_class) {
        return cand_status::settled;
      }
      // Conditions (b)/(c): the candidate's class must see every
      // buffered counter-example bit before its membership is trusted.
      if (class_stale(c)) {
        const auto t_sim = sweep_clock::now();
        refine_one_class(c);
        stats_.sim_seconds += seconds_since(t_sim);
        c = classes_.class_of(n);
        if (c == equiv_classes::no_class) {
          return cand_status::settled;
        }
      }
      maybe_resolve(c);
      c = classes_.class_of(n);
      if (c == equiv_classes::no_class) {
        return cand_status::settled;
      }
      const auto it = resolve_cache_.find(c);
      const bool resolved = it != resolve_cache_.end() &&
                            it->second.first == classes_.members(c).size() &&
                            it->second.second;

      const std::vector<net::node> drivers =
          tfi_.order_drivers(n, classes_.members(c));
      if (drivers.empty()) {
        // n is the representative; later candidates may use it
        return cand_status::settled;
      }
      const net::node driver = drivers.front();
      const bool complement = classes_.complemented(n, driver);

      if (resolved) {
        // Equivalence was proven by exhaustive window simulation; merge
        // without consulting SAT at all.
        merge_candidate(n, driver, complement, /*window=*/true);
        return cand_status::settled;
      }

      const auto t_sat = sweep_clock::now();
      ++stats_.sat_calls_total;
      const sat::result r = cnf_.prove_equivalent(
          net::signal{n, false}, net::signal{driver, false}, complement,
          budget);
      stats_.sat_seconds += seconds_since(t_sat);

      if (r == sat::result::unsat) {
        merge_candidate(n, driver, complement, /*window=*/false);
        return cand_status::settled;
      }
      if (r == sat::result::unknown) {
        if (governor_stopped(params_)) {
          // Governed wind-down, not a hard query: the candidate is
          // neither proven nor abandoned — leave it untouched.
          return cand_status::stopped;
        }
        if (allow_defer) {
          return cand_status::deferred;
        }
        ++stats_.dont_touch; // mark_dont_touch, lines 19-21
        classes_.remove_member(n);
        return cand_status::gave_up;
      }

      // Counter-example (lines 26-28, batched): the bit lands in the
      // open word now; refinement is deferred to conditions (a)/(b)/(c)
      // above.
      ++stats_.sat_calls_satisfiable;
      ++stats_.ce_patterns;
      const auto t_sim = sweep_clock::now();
      if (open_.full()) {
        refine_all_classes(); // condition (a): word full, flush
      }
      open_.add_pattern(cnf_.model_inputs());
      stats_.sim_seconds += seconds_since(t_sim);
    }
  }

  const net::aig_network& aig_;
  const stp_sweep_params& params_;
  sat::cnf_manager& cnf_;
  sweep_stats& stats_;
  sim::open_word open_; ///< counter-example column (shares the plan)
  equiv_classes classes_;
  std::vector<merge_record>& merges_;

  uint64_t applied_global_ = 0;
  std::vector<uint64_t> class_applied_; // per class id, lazily grown
  std::vector<uint32_t> created_ids_scratch_;

  uint32_t window_support_ = 0;
  std::unordered_map<uint32_t, std::pair<std::size_t, bool>> resolve_cache_;
  window_resolver resolver_;
  std::vector<net::node> support_scratch_;
  std::vector<net::node> resolve_members_scratch_;
  std::vector<uint64_t> resolve_keys_scratch_;

  tfi_manager tfi_;
  bool aborted_ = false;
};

} // namespace

sweep_stats stp_sweep(net::aig_network& aig, const stp_sweep_params& params)
{
  sweep_stats stats;
  const auto t_total = sweep_clock::now();
  stats.gates_before = aig.num_gates();
  stats.levels_before = net::depth(aig);
  stats.threads = std::max(params.threads, 1u);

  sat::cnf_manager::params cnf_params;
  cnf_params.incremental = params.use_incremental_cnf;
  cnf_params.clause_budget = params.sat_clause_budget;
  cnf_params.cone_scoped_decisions = params.use_cone_scoped_decisions;
  cnf_params.sat_reduce_learnts = params.sat_reduce;
  cnf_params.inprocess = params.sat_inprocess;
  cnf_params.inprocess_interval = params.sat_inprocess_interval;
  cnf_params.inprocess_min_clauses = params.sat_inprocess_min_clauses;
  cnf_params.hooks = params.governor;
  cnf_params.faults = params.faults;

  const uint32_t shards = params.effective_sat_shards();
  const uint32_t workers_used =
      std::min(std::max(params.threads, 1u), shards);
  // One pool serves both parallel phases; a single worker runs every
  // job on the calling thread.
  worker_pool pool{workers_used > 1u ? workers_used : 0u};

  // ---- Initial patterns (Alg. 2 line 2) + constant propagation (line 3).
  // The per-round simulation budget scales with the gate count (capped at
  // guided.base_patterns), so tiny instances stop over-investing in
  // simulation.  The guided prologue is sharded like the SAT phase
  // (sat_patterns.hpp): each shard proves its slice of the constant and
  // near-constant queries on a manager of its own — one shard's slice is
  // every gate.
  guided_pattern_config guided_config = params.guided;
  guided_config.base_patterns =
      params.effective_pattern_budget(aig.num_gates());
  guided_config.max_round2_queries =
      params.effective_round2_queries(aig.num_gates());
  guided_config.use_signature_phase = params.use_signature_phase;
  guided_config.governor = params.governor;
  const sim::pattern_set patterns = sharded_initial_patterns(
      aig, cnf_params, guided_config, params.use_guided_patterns, shards,
      pool, stats);

  if (governor_stopped(params)) {
    // Aborted during pattern generation: the constants applied above
    // are each a completed UNSAT proof, so the network is already a
    // sound partial result — finalize without building the class
    // machinery (no column was allocated, no worker ran).
    aig.cleanup_dangling();
    stats.gates_after = aig.num_gates();
    stats.outcome = params.governor->outcome();
    stats.worker_sat_seconds = {0.0};
    stats.total_seconds = seconds_since(t_total);
    return stats;
  }

  // ---- Initial STP simulation and equivalence classes (line 3). --------
  // The resimulation plan every shard absorbs counter-examples with is
  // a snapshot of the AIG after the constant merges above; the open
  // word continues the initial patterns' last word.
  auto t_sim = sweep_clock::now();
  const core::stp_simulator stp_sim;
  sim::signature_store sig = stp_sim.simulate_aig(aig, patterns);
  equiv_classes classes;
  classes.build(aig, sig, sim::tail_mask(patterns.num_patterns()));
  const sim::resim_plan plan = sim::make_resim_plan(aig);
  const sim::open_word open{patterns, plan};
  stats.sim_seconds += seconds_since(t_sim);

  // ---- Signature-guided SAT querying. ----------------------------------
  // Capture every node's bit of the *last* initial signature word — the
  // newest simulated pattern, one consistent whole-network assignment —
  // and seed each cone variable's saved polarity from it when the
  // variable encodes: the first query on a cone starts in a simulation-
  // consistent assignment (phase saving evolves freely afterwards), so
  // its counter-example — a small deviation from exactly that behavior
  // — falls out with far fewer conflicts.  The bits are shared
  // read-only: every shard's manager seeds from the same capture.
  std::shared_ptr<const std::vector<uint8_t>> phase_bits;
  if (params.use_signature_phase && sig.num_words() > 0u) {
    std::vector<uint8_t> bits(aig.size(), 0u);
    const std::size_t last_word = sig.num_words() - 1u;
    const uint64_t newest = (patterns.num_patterns() - 1u) & 63u;
    for (net::node n = 0; n < bits.size(); ++n) {
      bits[n] =
          static_cast<uint8_t>((sig.word(n, last_word) >> newest) & 1u);
    }
    phase_bits =
        std::make_shared<const std::vector<uint8_t>>(std::move(bits));
  }
  const auto hint_fn = [&](sat::cnf_manager& manager) {
    if (phase_bits != nullptr) {
      manager.set_phase_hints(
          [bits = phase_bits](net::node n) -> int {
            return n < bits->size() ? (*bits)[n] : -1;
          });
    }
  };

  // The classes have absorbed every initial word: the node-major store
  // goes before the shards start, and each shard refines from a copy of
  // the open word alone.
  sig = sim::signature_store{};

  const std::vector<net::node> order = net::reverse_topo_order(aig);

  // ---- SAT phase: class-sharded sweeping. ------------------------------
  // The candidate classes are partitioned round-robin (ascending class
  // id) into `shards` shards — one shard is the single-thread sweep.
  // Classes never interact during querying — drivers come from the
  // candidate's own class — so each shard sweeps its classes against
  // the frozen AIG with fully private state: a fresh cnf_manager, its
  // own copies of the open word and the class partition (non-owned
  // classes dissolved).  Only the resimulation plan is shared,
  // read-only.  Proven merges are
  // *recorded*, then committed below in ascending node-id order on this
  // thread.  A shard's trajectory is a pure function of its inputs, so
  // the sweep is byte-identical for a fixed shard count no matter how
  // many threads execute it.
  std::vector<uint32_t> owner_of_class(classes.num_class_ids(),
                                       ~uint32_t{0});
  {
    uint32_t next = 0;
    for (uint32_t c = 0; c < classes.num_class_ids(); ++c) {
      if (classes.members(c).size() >= 2u) {
        owner_of_class[c] = next++ % shards;
      }
    }
  }
  std::vector<std::vector<net::node>> shard_order(shards);
  for (const net::node n : order) {
    const uint32_t c = classes.class_of(n);
    if (c != equiv_classes::no_class && owner_of_class[c] != ~uint32_t{0}) {
      shard_order[owner_of_class[c]].push_back(n);
    }
  }

  struct shard_result
  {
    sweep_stats stats;
    std::vector<merge_record> records;
    bool aborted = false;
  };
  std::vector<shard_result> shard_results(shards);

  pool.run(shards, [&](std::size_t s) {
    shard_result& out = shard_results[s];
    sat::cnf_manager shard_cnf{aig, cnf_params};
    hint_fn(shard_cnf);
    equiv_classes shard_classes = classes;
    for (uint32_t c = 0; c < shard_classes.num_class_ids(); ++c) {
      if (owner_of_class[c] != static_cast<uint32_t>(s)) {
        shard_classes.dissolve_class(c);
      }
    }
    sweep_core core{aig,
                    params,
                    shard_cnf,
                    out.stats,
                    stats.gates_before,
                    open,
                    std::move(shard_classes),
                    out.records};
    core.run(shard_order[s]);
    core.finalize_stats();
    out.aborted = core.aborted();
  });

  // ---- Merge the per-shard accounting (ascending shard order). ---------
  // Counters are *sums over shards* on top of the prologue's, whose
  // slice managers were summed into `stats` already:
  // `sat_clauses_peak` in particular is the sum of per-manager peaks,
  // not a global simultaneous peak, and `sat_nodes_encoded` counts every
  // manager's encodes — a prologue manager's and its shard's alike, even
  // at one shard.  `worker_sat_seconds` covers the candidate loop only,
  // never the prologue.
  stats.sat_shards = shards;
  stats.workers_used = workers_used;
  stats.worker_sat_seconds.assign(workers_used, 0.0);
  bool any_aborted = false;
  for (uint32_t s = 0; s < shards; ++s) {
    const sweep_stats& ss = shard_results[s].stats;
    add_counters(stats, ss);
    stats.worker_sat_seconds[s % workers_used] += ss.sat_seconds;
    any_aborted = any_aborted || shard_results[s].aborted;
  }
  if (any_aborted && params.governor != nullptr) {
    stats.outcome = params.governor->outcome();
  }

  // ---- Commit pass: apply every recorded merge deterministically. ------
  // Records are sorted by merged node id ascending; `order_drivers`
  // guarantees every target node id is below its candidate, so the
  // resolution chain through already-committed merges strictly
  // decreases and the AIG's id-order invariant holds.  Cascades are
  // folded into a global replacement map so a record whose target died
  // in an earlier commit rewires to the live equivalent; a record whose
  // *own* node already died was merged implicitly by a cascade and is
  // skipped.  Every record is an UNSAT (or exhaustive-window) proof
  // over the frozen AIG, so the commit order cannot invent an unproven
  // substitution — partial-result soundness survives aborts unchanged.
  std::vector<merge_record> records;
  for (shard_result& sr : shard_results) {
    records.insert(records.end(), sr.records.begin(), sr.records.end());
  }
  std::sort(records.begin(), records.end(),
            [](const merge_record& a, const merge_record& b) {
              return a.n < b.n;
            });
  std::vector<net::signal> repl(aig.size(), net::signal{0});
  std::vector<bool> has_repl(aig.size(), false);
  const auto resolve = [&](net::signal s) {
    while (has_repl[s.get_node()]) {
      const bool c = s.is_complemented();
      s = repl[s.get_node()];
      if (c) {
        s = !s;
      }
    }
    return s;
  };
  std::vector<std::pair<net::node, net::signal>> cascades;
  for (const merge_record& rec : records) {
    if (aig.is_dead(rec.n)) {
      continue; // a cascade of an earlier commit merged it already
    }
    cascades.clear();
    aig.substitute_node(rec.n, resolve(rec.target), &cascades);
    for (const auto& [dead, to] : cascades) {
      repl[dead] = to;
      has_repl[dead] = true;
    }
  }

  aig.cleanup_dangling();
  stats.gates_after = aig.num_gates();
  stats.total_seconds = seconds_since(t_total);
  return stats;
}

} // namespace stps::sweep
