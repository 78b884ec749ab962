/// \file encoder.hpp
/// \brief Incremental Tseitin encoding of AIG cones into the CDCL solver.
///
/// The sweepers pose many equivalence queries against one growing CNF
/// (the circuit-based SAT integration of refs [4, 14]): each AIG node is
/// encoded at most once (three clauses per AND), queries are solved under
/// assumptions on lazily created XOR miter variables, and counter-example
/// models are read back as PI assignments (Alg. 2 line 26).
#pragma once

#include "network/aig.hpp"
#include "sat/solver.hpp"

#include <functional>
#include <iosfwd>
#include <optional>
#include <vector>

namespace stps::sat {

class aig_encoder
{
public:
  struct options
  {
    /// Restrict each query's decisions and propagation to its union
    /// cone (solver::set_decision_vars over the encoded support
    /// closure).  Conflict-driven activity bumping is thereby limited
    /// to the current cone too: variables outside it never enter the
    /// decision heap, so stale high-activity variables of long-dead
    /// queries cannot steer the search, and implications stop at the
    /// cone boundary instead of running through every gate encoded so
    /// far.  Counter-examples then carry each out-of-cone PI's saved
    /// phase.  false = unrestricted decisions and propagation over
    /// every encoded variable (ablation baseline).
    bool cone_scoped_decisions = true;
  };

  /// Branching-phase hint for a node: -1 = no hint, otherwise the value
  /// (0/1) the solver should try first — typically the node's value
  /// under a simulation pattern, so seeded cone phases form one
  /// simulation-consistent assignment.
  using phase_hint_fn = std::function<int(net::node)>;

  /// Per-node snapshot of learned solver state — saved phase and
  /// normalized VSIDS activity — taken before a garbage-epoch teardown
  /// and replayed onto the variables of whichever cones re-encode in
  /// the next epoch (still-live cones keep what the search learned).
  struct var_state_snapshot
  {
    std::vector<int8_t> phase;    ///< node → -1 (not encoded) or 0/1
    std::vector<float> activity;  ///< node → normalized activity
  };

  /// The encoder keeps references; \p aig and \p s must outlive it.
  /// Substitutions may kill encoded nodes — encoded clauses stay valid
  /// because proven-equivalent literals are constrained equal anyway.
  aig_encoder(const net::aig_network& aig, solver& s, options opt);
  aig_encoder(const net::aig_network& aig, solver& s)
      : aig_encoder(aig, s, options{})
  {
  }

  /// Installs (or clears, with nullptr) the phase-hint provider.  Each
  /// variable's saved polarity is seeded from the hint when its node
  /// encodes, and — while `set_phase_reseed(true)` holds — re-seeded at
  /// every query for the whole cone, so each search starts from one
  /// simulation-consistent assignment.  Hints must be deterministic —
  /// they steer the search, and seeded runs are pinned byte-identical.
  void set_phase_hints(phase_hint_fn hints) { phase_hints_ = std::move(hints); }

  /// Toggles per-query cone re-seeding (encode-time seeding always
  /// happens while hints are installed).  Re-seeding makes UNSAT-bound
  /// queries much cheaper but biases satisfiable models toward the seed
  /// pattern; cnf_manager switches it off adaptively once satisfiable
  /// answers become frequent enough that counter-example diversity
  /// matters more.
  void set_phase_reseed(bool on) noexcept { reseed_phases_ = on; }

  /// Phases seeded from hints so far (encode-time + per-query re-seeds;
  /// the bench's `phase_seed_words` counter).
  uint64_t phase_seeds() const noexcept { return phase_seeds_; }

  /// Installs (or clears, with nullptr) the cooperative resource hooks
  /// (sat/resource.hpp) and forwards them to the solver.  The encoder
  /// is the query-boundary owner: every query entry (equivalence,
  /// constant, or assignment) ticks `on_query_begin` and, if
  /// `should_stop` already holds, answers `unknown` (nullopt for
  /// find_assignment) without encoding or searching.  The hooks must
  /// outlive the encoder or be cleared first.
  void set_resource_hooks(resource_hooks* hooks) noexcept
  {
    hooks_ = hooks;
    solver_.set_resource_hooks(hooks);
  }

  /// Captures every encoded node's saved phase + normalized activity.
  void snapshot_var_state(var_state_snapshot& out) const;
  /// Replays \p carried (which must outlive the encoder) onto nodes as
  /// they (re-)encode; nullptr detaches.
  void set_carried_state(const var_state_snapshot* carried)
  {
    carried_ = carried;
  }

  /// Solver literal of \p f, encoding its cone on demand.
  lit literal(net::signal f);

  /// Equivalence query: is `a == b` (when \p complement is false) or
  /// `a == !b` (when true) a tautology?  `unsat` means proven equivalent;
  /// `sat` leaves the counter-example readable via `model_inputs`;
  /// `unknown` is a budget timeout (the paper's unDET).
  result prove_equivalent(net::signal a, net::signal b, bool complement,
                          int64_t conflict_budget);

  /// Constant-ness query: is `f == value` a tautology?
  result prove_constant(net::signal f, bool value, int64_t conflict_budget);

  /// PI assignment of the last `sat` answer (index = PI position).
  std::vector<bool> model_inputs() const;

  /// Writes the equivalence query `a == b` (or `a == !b`) as a
  /// standalone DIMACS instance: the live clause database, the four XOR
  /// defining clauses over a *virtual* miter variable (one past the
  /// solver's — no solver state is touched beyond encoding the two
  /// cones), and the assumption as a unit clause.  The instance is
  /// unsatisfiable iff the query would answer `unsat`; it replays with
  /// `replay_dimacs` (sat/dimacs.hpp) and can be handed to external
  /// solvers or delta-debugging minimizers as-is.
  void export_equivalence_query(std::ostream& os, net::signal a,
                                net::signal b, bool complement);

  /// Asks for an input assignment satisfying `f == value` — used by the
  /// SAT-guided pattern generator (§IV-A).  Returns nullopt when
  /// unsatisfiable or unknown.
  std::optional<std::vector<bool>> find_assignment(net::signal f, bool value,
                                                   int64_t conflict_budget);

  uint64_t num_encoded_nodes() const noexcept { return encoded_count_; }

private:
  /// Under `options::cone_scoped_decisions`: computes the encoded
  /// support closure of \p roots (following the fanin variables *as
  /// encoded*, `var_fanins_`, which stays correct when later
  /// substitutions rewire the AIG) and flags it (plus \p extra, if not
  /// ~0u) as the solver's decision scope, so a query searches only its
  /// own cones instead of every variable encoded so far.  No-op when
  /// the option is off.
  void scope_query(std::span<const lit> roots, var extra);

  /// Registers a fresh solver variable for \p n (~0u = auxiliary): grows
  /// the var-indexed arrays and replays any carried phase/activity.
  var make_var(net::node n, var fanin0, var fanin1);

  /// Query-entry tick + stop poll shared by the three query kinds.
  /// Returns true when the query must answer `unknown` immediately.
  bool governed_stop_at_query() noexcept
  {
    if (hooks_ == nullptr) {
      return false;
    }
    hooks_->on_query_begin();
    return hooks_->should_stop();
  }

  const net::aig_network& aig_;
  solver& solver_;
  options opt_;
  resource_hooks* hooks_ = nullptr; // non-owning; null = ungoverned
  phase_hint_fn phase_hints_;
  bool reseed_phases_ = true;
  const var_state_snapshot* carried_ = nullptr;
  uint64_t phase_seeds_ = 0;
  std::vector<var> node_var_;     // node id → var + 1 (0 = not encoded)
  var const_var_;                 // variable fixed to false
  /// Reusable XOR-miter variable (+1; 0 = none yet).  Its four defining
  /// clauses are added per query and retracted right after, so thousands
  /// of equivalence queries do not pile dead XOR cones into the solver.
  /// Retired (re-allocated) if a query pins it at level 0.
  var xor_var_ = 0;
  uint64_t encoded_count_ = 0;

  /// var → its two antecedent vars at encode time (~0u = leaf).
  std::vector<std::array<var, 2>> var_fanins_;
  std::vector<net::node> var_node_;   // var → node (~0u = auxiliary)
  std::vector<uint32_t> scope_mark_;  // var → last scope epoch
  uint32_t scope_epoch_ = 0;
  std::vector<var> scope_vars_;       // scratch: current scope closure
};

} // namespace stps::sat
