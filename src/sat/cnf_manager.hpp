/// \file cnf_manager.hpp
/// \brief Lifetime and garbage policy for the sweepers' incremental CNF.
///
/// Both sweepers pose thousands of equivalence/constant queries against
/// one circuit.  The cone-reuse win comes from keeping *one* persistent
/// solver with a gate→literal cache (aig_encoder): a query encodes only
/// the not-yet-encoded part of its union cone, and cached clauses plus
/// learnt clauses survive across queries.  Left unchecked, however, the
/// clause database grows monotonically — encoded cones of long-dead
/// candidates and stale learnt clauses slow every later propagation and
/// pin memory for the whole sweep, which is what breaks ≥ 1M-gate
/// instances.
///
/// The manager owns the solver + encoder pair and adds the two policies
/// the raw encoder cannot express:
///
/// * **Garbage epochs** — when problem + learnt clauses exceed
///   `clause_budget`, the pair is torn down and rebuilt empty (a new
///   epoch); cones re-encode lazily on the queries that actually still
///   need them, so the rebuilt database contains only live work.  The
///   check runs at query *entry*, never between a `sat` answer and its
///   `model_inputs()` read.
/// * **The non-incremental ablation** — `incremental = false` rebuilds
///   before *every* query, i.e. each query re-encodes its whole union
///   cone from scratch into a fresh solver.  This is the baseline the
///   `sat_nodes_encoded` counter is measured against; results are
///   bit-identical (the differential harness pins this), only the encode
///   work and runtime differ.
#pragma once

#include "network/aig.hpp"
#include "sat/encoder.hpp"
#include "sat/resource.hpp"
#include "sat/solver.hpp"

#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

namespace stps::sat {

class cnf_manager
{
public:
  struct params
  {
    /// false = fresh solver + encoder per query (ablation baseline).
    bool incremental = true;
    /// Rebuild the solver when problem + learnt clauses exceed this
    /// (checked at query entry); 0 = never rebuild.
    uint64_t clause_budget = 0;
    /// Cone-aware query scoping (aig_encoder::options): decisions and
    /// thereby conflict-driven activity bumps are restricted to each
    /// query's union cone, propagation above level 0 stops at the
    /// cone's boundary (solver::set_decision_vars), and saved phases +
    /// normalized activities
    /// survive garbage epochs for cones that re-encode (the snapshot is
    /// taken at teardown and replayed as nodes re-encode; per-query
    /// scratch rebuilds of the non-incremental ablation stay cold —
    /// they are the baseline the carry-over is measured against).
    /// false = unrestricted decisions, cold rebuilds.
    bool cone_scoped_decisions = true;
    /// Adaptive per-query phase re-seeding (active only while phase
    /// hints are installed, and only for *equivalence* queries —
    /// guided pattern-generation queries are exempt: their satisfiable
    /// models become simulation patterns, so their diversity is the
    /// whole point and their outcomes are intentional).  Re-seeding
    /// every equivalence query's cone from the signature hints makes
    /// UNSAT-bound searches drastically cheaper (arithmetic instances:
    /// nearly every query is a proof — mult96r's SAT time drops ~10×),
    /// but it also biases every satisfiable model toward the seed
    /// pattern — and on deep-random logic the near-duplicate
    /// counter-examples refine so little that the sweep pays *more*
    /// satisfiable calls than the cheaper searches save.  The two
    /// regimes announce themselves: once at least
    /// `phase_reseed_warmup` equivalence queries ran and the measured
    /// satisfiable fraction exceeds this many per mille, re-seeding
    /// switches off for the rest of the sweep (encode-time seeds keep
    /// applying).  0 = never re-seed per query.
    uint32_t phase_reseed_sat_per_mille = 125;
    uint64_t phase_reseed_warmup = 64;
    /// Glue/activity-ranked learnt-clause reduction inside the solver
    /// (solver_options::reduce_learnts).  Off = learnt clauses only
    /// leave the database via purges and garbage epochs — the
    /// epoch-only baseline the `sat_clauses_peak` delta is measured
    /// against.
    bool sat_reduce_learnts = true;
    /// Between-query inprocessing (sat/inprocess.hpp): equivalent-
    /// literal collapsing over the binary implication graph, budgeted
    /// backward subsumption, and bounded vivification, run at query
    /// entry (decision level 0, no removable clauses attached) every
    /// `inprocess_interval` queries once the database holds at least
    /// `inprocess_min_clauses` clauses.  The schedule counts query
    /// entries per epoch (the tick resets on rebuild — a fresh database
    /// has nothing to simplify), so it is deterministic: no wall-clock
    /// gating.  false = never inprocess.
    bool inprocess = true;
    uint64_t inprocess_interval = 2048;
    uint64_t inprocess_min_clauses = 4096;
    /// Cooperative resource governance (sweep::resource_governor
    /// implements the interface): forwarded to the encoder + solver of
    /// every epoch, so deadlines/budgets/cancellation survive garbage
    /// rebuilds.  Non-owning; must outlive the manager.  Null =
    /// ungoverned (bit-identical to the pre-governor build).
    resource_hooks* hooks = nullptr;
    /// Deterministic fault injection (sat/resource.hpp); all-zero = off.
    fault_plan faults{};
  };

  /// \p aig must outlive the manager (the encoder keeps a reference).
  cnf_manager(const net::aig_network& aig, params p);
  explicit cnf_manager(const net::aig_network& aig)
      : cnf_manager(aig, params{})
  {
  }

  /// \name Query interface (see aig_encoder for semantics)
  /// \{
  result prove_equivalent(net::signal a, net::signal b, bool complement,
                          int64_t conflict_budget);
  result prove_constant(net::signal f, bool value, int64_t conflict_budget);
  std::optional<std::vector<bool>> find_assignment(net::signal f, bool value,
                                                   int64_t conflict_budget);
  /// PI assignment of the last `sat` answer.  Valid until the next
  /// query (a rebuild can only happen at query entry).
  std::vector<bool> model_inputs() const;
  /// Writes the equivalence query as a standalone DIMACS instance
  /// (aig_encoder::export_equivalence_query) against the *current*
  /// epoch's database — no rebuild policy is applied, so the export
  /// reflects exactly what a query posed now would solve against.
  void export_equivalence_query(std::ostream& os, net::signal a,
                                net::signal b, bool complement);
  /// \}

  /// \name Encode-work counters (aggregated across epochs)
  /// \{
  /// AND nodes Tseitin-encoded over the manager's lifetime; with
  /// incremental CNF each live node is encoded ~once per epoch, without
  /// it every query re-encodes its union cone.
  uint64_t nodes_encoded() const noexcept
  {
    return nodes_encoded_retired_ + encoder_->num_encoded_nodes();
  }
  /// Solver teardowns (garbage epochs + non-incremental per-query
  /// rebuilds).
  uint64_t rebuilds() const noexcept { return rebuilds_; }
  /// Largest problem + learnt clause count observed at a query entry —
  /// with a finite `clause_budget` this is (budget + one query's cone)
  /// bounded, without one it grows with the sweep.
  uint64_t clauses_peak() const noexcept { return clauses_peak_; }
  /// Cone-variable phases seeded from signature hints, all epochs.
  uint64_t phase_seeds() const noexcept
  {
    return phase_seeds_retired_ + encoder_->phase_seeds();
  }
  /// \}

  /// Installs (or clears, with nullptr) the per-node branching-phase
  /// provider (aig_encoder::set_phase_hints); re-installed automatically
  /// on every rebuild, so hints survive garbage epochs.  The provider
  /// must outlive the manager or be cleared before its captures die.
  void set_phase_hints(aig_encoder::phase_hint_fn hints);

  /// Solver search counters *accumulated across every rebuild* — garbage
  /// epochs and per-query scratch teardowns retire the live solver's
  /// stats into a running sum, so decisions/conflicts/restarts count the
  /// whole sweep, never just the current epoch.
  solver_stats solver_statistics() const noexcept;

  /// True while per-query phase re-seeding is still live (diagnostic;
  /// meaningful only when phase hints are installed).
  bool phase_reseed_live() const noexcept { return reseed_on_; }

private:
  /// Applies the rebuild policy (including `fault_plan::rebuild_every`);
  /// called at every query entry.
  void begin_query();
  /// Runs the inprocessing schedule (see params); called at the end of
  /// begin_query, i.e. always at decision level 0 with no removable
  /// clauses attached and never between a `sat` answer and its
  /// `model_inputs()` read.
  void maybe_inprocess();
  /// Feeds the adaptive re-seeding switch with a query's outcome.
  void note_answer(bool satisfiable);
  /// True when `fault_plan::unknown_every` forces this equivalence
  /// query to answer `unknown` without searching.
  bool fault_unknown_now();

  const net::aig_network& aig_;
  params params_;
  std::unique_ptr<solver> solver_;
  std::unique_ptr<aig_encoder> encoder_;
  aig_encoder::phase_hint_fn phase_hints_;
  /// Learned phase/activity carried across garbage epochs (see params).
  aig_encoder::var_state_snapshot carried_;
  bool have_carried_ = false;
  bool used_ = false; ///< a query ran in the current epoch
  bool reseed_on_ = true;     ///< adaptive per-query re-seeding state
  uint64_t queries_seen_ = 0; ///< answers observed (all epochs)
  uint64_t sat_seen_ = 0;     ///< satisfiable answers observed
  uint64_t nodes_encoded_retired_ = 0;
  uint64_t phase_seeds_retired_ = 0;
  uint64_t rebuilds_ = 0;
  uint64_t clauses_peak_ = 0;
  uint64_t inprocess_tick_ = 0; ///< query entries this epoch (schedule)
  uint64_t fault_queries_ = 0;       ///< query entries (fault schedule)
  uint64_t fault_equiv_queries_ = 0; ///< equivalence queries (ditto)
  uint64_t fault_rng_ = 0;           ///< xorshift64 state (seeded plans)
  solver_stats stats_retired_; ///< stats of torn-down solvers, summed
};

} // namespace stps::sat
