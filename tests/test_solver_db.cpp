/// \file test_solver_db.cpp
/// \brief Clause-database policy suite (PR 10): the reduce_db /
/// implicit-binary / inprocessing machinery against the naive
/// watched-clause path.
///
/// Strategy: build a corpus of random 3-SAT instances around the phase
/// transition plus structured instances (pigeonhole, an XOR-chain
/// miter), then pin that every point of the policy config matrix
/// {reduce on/off} x {implicit binaries on/off} returns the *same
/// verdict* as the naive path, with a valid model on every sat answer
/// and byte-identical search statistics on repeat runs.  The policy
/// knobs are shrunk (reduce_base = 8) so reductions actually fire on
/// these tiny instances — a separate test asserts they did.
///
/// The inprocessor phases (equivalent-literal collapsing, backward
/// subsumption, bounded vivification) get crafted unit instances each,
/// and the dimacs export/replay path is closed into a round-trip:
/// a query exported from any config must replay to the same verdict
/// under any other config.
///
/// Scope-gated propagation (set_decision_vars bounds propagation too)
/// is pinned on seeded random AIG queries with inprocessing forced
/// between almost every query — every sat model must be a real
/// counter-example and every unsat answer must hold on an unscoped
/// solver — and on a hand-built collapse whose representative lies
/// outside the query cone.

#include "gen/arithmetic.hpp"
#include "gen/random_logic.hpp"
#include "gen/redundancy.hpp"
#include "sat/cnf_manager.hpp"
#include "sat/dimacs.hpp"
#include "sat/encoder.hpp"
#include "sat/inprocess.hpp"
#include "sat/solver.hpp"
#include "sim/bitwise_sim.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

namespace {

using namespace stps;
using namespace stps::sat;

lit pos(var v) { return lit{v, false}; }
lit neg(var v) { return lit{v, true}; }

using cnf = std::vector<std::vector<lit>>;

/// Random 3-SAT with distinct variables per clause.  Ratio ~4.3 puts
/// the corpus at the phase transition, so seeds split between sat and
/// unsat and the unsat ones need real conflict analysis.
cnf random_3sat(uint32_t num_vars, uint32_t num_clauses, uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::uniform_int_distribution<uint32_t> pick_var{0, num_vars - 1};
  std::uniform_int_distribution<int> pick_sign{0, 1};
  cnf clauses;
  clauses.reserve(num_clauses);
  for (uint32_t i = 0; i < num_clauses; ++i) {
    std::vector<lit> c;
    while (c.size() < 3) {
      const var v = pick_var(rng);
      bool fresh = true;
      for (const lit l : c) {
        fresh &= l.variable() != v;
      }
      if (fresh) {
        c.push_back(lit{v, pick_sign(rng) != 0});
      }
    }
    clauses.push_back(std::move(c));
  }
  return clauses;
}

/// PHP(holes+1, holes): classically unsat, and its hole-conflict
/// clauses are all binary — the implicit-binary graph carries most of
/// the instance.
cnf pigeonhole(uint32_t holes, uint32_t& num_vars)
{
  const uint32_t pigeons = holes + 1;
  num_vars = pigeons * holes;
  const auto x = [&](uint32_t p, uint32_t h) -> var { return p * holes + h; };
  cnf clauses;
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<lit> some_hole;
    for (uint32_t h = 0; h < holes; ++h) {
      some_hole.push_back(pos(x(p, h)));
    }
    clauses.push_back(std::move(some_hole));
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p = 0; p < pigeons; ++p) {
      for (uint32_t q = p + 1; q < pigeons; ++q) {
        clauses.push_back({neg(x(p, h)), neg(x(q, h))});
      }
    }
  }
  return clauses;
}

/// Tseitin XOR gate z = x ^ y.
void add_xor(cnf& clauses, lit z, lit x, lit y)
{
  clauses.push_back({~z, x, y});
  clauses.push_back({~z, ~x, ~y});
  clauses.push_back({z, ~x, y});
  clauses.push_back({z, x, ~y});
}

/// Miter of two XOR chains over the same inputs, associated in opposite
/// orders, asserted different — unsat, and every conflict reaches
/// through ternary Tseitin structure (no help from the binary graph).
cnf xor_chain_miter(uint32_t num_inputs, uint32_t& num_vars)
{
  cnf clauses;
  var next = num_inputs;
  // left-assoc chain
  var acc_l = 0; // reuse input 0 as the seed accumulator literal source
  lit left = pos(0);
  for (uint32_t i = 1; i < num_inputs; ++i) {
    const var z = next++;
    add_xor(clauses, pos(z), left, pos(i));
    left = pos(z);
  }
  // right-assoc chain
  lit right = pos(num_inputs - 1);
  for (uint32_t i = num_inputs - 1; i-- > 0;) {
    const var z = next++;
    add_xor(clauses, pos(z), pos(i), right);
    right = pos(z);
  }
  // assert left != right
  clauses.push_back({left, right});
  clauses.push_back({~left, ~right});
  num_vars = next;
  (void)acc_l;
  return clauses;
}

void load(solver& s, const cnf& clauses, uint32_t num_vars)
{
  while (s.num_vars() < num_vars) {
    s.new_var();
  }
  for (const auto& c : clauses) {
    s.add_clause(c);
  }
}

bool model_satisfies(const solver& s, const cnf& clauses)
{
  for (const auto& c : clauses) {
    bool satisfied = false;
    for (const lit l : c) {
      satisfied |= s.model_value(l.variable()) != l.sign();
    }
    if (!satisfied) {
      return false;
    }
  }
  return true;
}

/// The policy config matrix.  reduce_base is shrunk so reduce_db fires
/// on corpus-sized instances; verdicts may not depend on it.
const solver_options configs[] = {
    {false, false, 4000, 300}, // naive: watched clauses only, no reduction
    {true, false, 8, 4},       // aggressive reduction, no binary graph
    {false, true, 4000, 300},  // binary graph only
    {true, true, 8, 4},        // full machinery, aggressive reduction
};

struct corpus_instance
{
  const char* name;
  uint32_t num_vars;
  cnf clauses;
};

std::vector<corpus_instance> make_corpus()
{
  std::vector<corpus_instance> corpus;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    corpus.push_back({"rand3sat", 50, random_3sat(50, 215, 0xC0FFEEu + seed)});
  }
  uint32_t nv = 0;
  cnf php = pigeonhole(6, nv);
  corpus.push_back({"php", nv, std::move(php)});
  cnf miter = xor_chain_miter(10, nv);
  corpus.push_back({"xor_miter", nv, std::move(miter)});
  return corpus;
}

TEST(SolverDb, ConfigMatrixAgreesWithNaivePath)
{
  const std::vector<corpus_instance> corpus = make_corpus();
  uint32_t sat_count = 0;
  uint32_t unsat_count = 0;
  for (const corpus_instance& inst : corpus) {
    result naive_verdict = result::unknown;
    for (std::size_t ci = 0; ci < std::size(configs); ++ci) {
      solver s{configs[ci]};
      load(s, inst.clauses, inst.num_vars);
      const result r = s.solve();
      ASSERT_NE(r, result::unknown) << inst.name << " config " << ci;
      if (ci == 0) {
        naive_verdict = r;
        sat_count += r == result::sat;
        unsat_count += r == result::unsat;
      } else {
        EXPECT_EQ(r, naive_verdict)
            << inst.name << " config " << ci << " diverged from naive";
      }
      if (r == result::sat) {
        EXPECT_TRUE(model_satisfies(s, inst.clauses))
            << inst.name << " config " << ci << " returned an invalid model";
      }
    }
  }
  // The corpus must actually exercise both verdicts.
  EXPECT_GT(sat_count, 0u);
  EXPECT_GT(unsat_count, 0u);
}

TEST(SolverDb, PolicyMachineryActuallyFires)
{
  uint32_t nv = 0;
  const cnf php = pigeonhole(7, nv); // hard enough to learn > 8 clauses

  solver full{configs[3]};
  load(full, php, nv);
  EXPECT_EQ(full.solve(), result::unsat);
  // The hole-conflict clauses are binary and must have been routed to
  // the implication graph; the tiny reduce_base must have triggered
  // at least one reduction; every learnt carries an LBD.
  EXPECT_GT(full.stats().binary_clauses, 0u);
  EXPECT_GT(full.stats().learnts_reduced, 0u);
  EXPECT_GT(full.stats().lbd_sum, 0u);

  solver naive{configs[0]};
  load(naive, php, nv);
  EXPECT_EQ(naive.solve(), result::unsat);
  EXPECT_EQ(naive.stats().binary_clauses, 0u);
  EXPECT_EQ(naive.stats().learnts_reduced, 0u);
}

TEST(SolverDb, RepeatRunsAreDeterministic)
{
  const std::vector<corpus_instance> corpus = make_corpus();
  for (const corpus_instance& inst : corpus) {
    for (const solver_options& opt : configs) {
      solver a{opt};
      solver b{opt};
      load(a, inst.clauses, inst.num_vars);
      load(b, inst.clauses, inst.num_vars);
      const result ra = a.solve();
      const result rb = b.solve();
      EXPECT_EQ(ra, rb) << inst.name;
      EXPECT_EQ(a.stats().decisions, b.stats().decisions) << inst.name;
      EXPECT_EQ(a.stats().conflicts, b.stats().conflicts) << inst.name;
      EXPECT_EQ(a.stats().propagations, b.stats().propagations) << inst.name;
      EXPECT_EQ(a.stats().learnts_reduced, b.stats().learnts_reduced)
          << inst.name;
      if (ra == result::sat) {
        for (var v = 0; v < inst.num_vars; ++v) {
          EXPECT_EQ(a.model_value(v), b.model_value(v))
              << inst.name << " var " << v;
        }
      }
    }
  }
}

/// Incremental assumption queries against one long-lived reducing
/// solver must agree with a fresh naive solver per query — reductions
/// between queries may only delete learnts, never change answers.
TEST(SolverDb, IncrementalQueriesMatchFreshNaiveSolver)
{
  const cnf base = random_3sat(60, 240, 0xBEEFu); // satisfiable region edge
  solver persistent{configs[3]};
  load(persistent, base, 60);

  std::mt19937_64 rng{17};
  std::uniform_int_distribution<uint32_t> pick_var{0, 59};
  std::uniform_int_distribution<int> pick_sign{0, 1};
  for (uint32_t q = 0; q < 25; ++q) {
    std::vector<lit> assumptions;
    for (uint32_t i = 0; i < 3; ++i) {
      assumptions.push_back(lit{pick_var(rng), pick_sign(rng) != 0});
    }
    const result incremental = persistent.solve(assumptions);
    solver fresh{configs[0]};
    load(fresh, base, 60);
    const result reference = fresh.solve(assumptions);
    EXPECT_EQ(incremental, reference) << "query " << q;
  }
  // The long-lived database really went through reductions.
  EXPECT_GT(persistent.stats().learnts_reduced, 0u);
}

/// The purge/retract pattern of the equivalence encoder, interleaved
/// with aggressive reduce_db and arena GC: auxiliary definitions added
/// as removable clauses, one solve, purge of everything learnt about
/// the aux var, retraction — repeated until the learnt log has been
/// reshuffled by reductions and collections many times over.
TEST(SolverDb, PurgeSoundUnderReduceAndGarbageCollection)
{
  const cnf base = random_3sat(50, 210, 0xD1CEu);
  solver s{configs[3]};
  load(s, base, 50);

  std::mt19937_64 rng{23};
  std::uniform_int_distribution<uint32_t> pick_var{0, 49};
  std::uniform_int_distribution<int> pick_sign{0, 1};
  for (uint32_t round = 0; round < 30; ++round) {
    const lit l1{pick_var(rng), pick_sign(rng) != 0};
    lit l2{pick_var(rng), pick_sign(rng) != 0};
    while (l2.variable() == l1.variable()) {
      l2 = lit{pick_var(rng), pick_sign(rng) != 0};
    }
    // aux <-> (l1 & l2), attached retractably like a query miter.
    const var aux = s.new_var();
    std::vector<solver::clause_handle> handles;
    handles.push_back(s.add_removable_clause({{neg(aux), l1}}));
    handles.push_back(s.add_removable_clause({{neg(aux), l2}}));
    handles.push_back(s.add_removable_clause({{pos(aux), ~l1, ~l2}}));
    const lit assume[1] = {round % 2 == 0 ? pos(aux) : neg(aux)};
    const result incremental = s.solve(assume);

    // Reference: fresh naive solver with the same base + definition.
    // The persistent solver accumulates one aux var per round; pad the
    // reference to the same id space (earlier aux vars are unused).
    solver fresh{configs[0]};
    load(fresh, base, 50);
    while (fresh.num_vars() <= aux) {
      fresh.new_var();
    }
    fresh.add_clause({neg(aux), l1});
    fresh.add_clause({neg(aux), l2});
    fresh.add_clause({pos(aux), ~l1, ~l2});
    EXPECT_EQ(incremental, fresh.solve(assume)) << "round " << round;

    s.purge_learnts_with(aux);
    for (solver::clause_handle h : handles) {
      s.remove_clause(h);
    }
  }
  EXPECT_GT(s.stats().learnts_reduced, 0u);
}

TEST(SolverDb, InprocessCollapsesEquivalentLiterals)
{
  solver s; // defaults: implicit binaries on
  for (int i = 0; i < 6; ++i) {
    s.new_var();
  }
  // a <-> b through the binary graph, plus ternary clauses on both
  // names that collapsing rewrites onto one representative.
  s.add_clause({neg(0), pos(1)});
  s.add_clause({neg(1), pos(0)});
  s.add_clause({pos(0), pos(2), pos(3)});
  s.add_clause({neg(1), pos(4), pos(5)});
  s.add_clause({pos(2), neg(4)});

  const inprocessor::outcome out = inprocessor::run(s, {}, nullptr);
  EXPECT_FALSE(out.unsat);
  EXPECT_GE(out.lits_collapsed, 1u);
  EXPECT_EQ(s.stats().lits_collapsed, out.lits_collapsed);

  // The equivalence must survive in the database: a and b agree in
  // every model, in both phases.
  const lit force_a[1] = {pos(0)};
  ASSERT_EQ(s.solve(force_a), result::sat);
  EXPECT_EQ(s.model_value(0), s.model_value(1));
  const lit force_na[1] = {neg(0)};
  ASSERT_EQ(s.solve(force_na), result::sat);
  EXPECT_EQ(s.model_value(0), s.model_value(1));
}

TEST(SolverDb, InprocessDetectsContradictoryScc)
{
  solver s;
  for (int i = 0; i < 3; ++i) {
    s.new_var();
  }
  // a -> b -> !a -> c -> a: a and !a share an SCC, database unsat —
  // pure binary structure no unit propagation can see.
  s.add_clause({neg(0), pos(1)});
  s.add_clause({neg(1), neg(0)});
  s.add_clause({pos(0), pos(2)});
  s.add_clause({neg(2), pos(0)});

  const inprocessor::outcome out = inprocessor::run(s, {}, nullptr);
  EXPECT_TRUE(out.unsat);
  EXPECT_EQ(s.solve(), result::unsat);
}

TEST(SolverDb, InprocessSubsumesAndVivifies)
{
  solver s;
  for (int i = 0; i < 8; ++i) {
    s.new_var();
  }
  // (a | b) subsumes (a | b | c) — binary subsumer from the graph.
  s.add_clause({pos(0), pos(1)});
  s.add_clause({pos(0), pos(1), pos(2)});
  // c -> a strengthens (a | b2 | c) to (a | b2): vivification assumes
  // !a (propagating !c through the graph), then finds c already false.
  s.add_clause({neg(2), pos(0)});
  s.add_clause({pos(0), pos(3), pos(2)});
  // untouched filler keeping the instance satisfiable and non-trivial
  s.add_clause({pos(4), pos(5), pos(6)});
  s.add_clause({neg(4), pos(7), neg(6)});

  const std::size_t clauses_before = s.num_clauses();
  const inprocessor::outcome out = inprocessor::run(s, {}, nullptr);
  EXPECT_FALSE(out.unsat);
  EXPECT_GE(out.clauses_subsumed, 1u);
  EXPECT_GE(out.clauses_strengthened, 1u);
  EXPECT_LT(s.num_clauses(), clauses_before);
  EXPECT_EQ(s.stats().clauses_subsumed, out.clauses_subsumed);

  // The strengthened clause (a | b2) must now be enforced: refuting
  // both literals leaves no model.
  const lit refute[2] = {neg(0), neg(3)};
  EXPECT_EQ(s.solve(refute), result::unsat);
  ASSERT_EQ(s.solve(), result::sat);
}

/// Export a query from every config, replay it under every config:
/// all 16 combinations must agree with the live verdict, with and
/// without learnt clauses included.
TEST(SolverDb, ExportReplayRoundTrip)
{
  uint32_t nv = 0;
  const cnf miter = xor_chain_miter(8, nv);
  const cnf satisfiable = random_3sat(40, 160, 0xF00Du);

  for (const solver_options& exporter_opt : configs) {
    // Unsat instance, exported mid-session after a solve (learnts live).
    solver s{exporter_opt};
    load(s, miter, nv);
    EXPECT_EQ(s.solve(), result::unsat);
    for (const bool include_learnts : {false, true}) {
      std::ostringstream os;
      export_dimacs(os, s, {}, include_learnts);
      for (const solver_options& replayer_opt : configs) {
        std::istringstream is{os.str()};
        EXPECT_EQ(replay_dimacs(is, -1, replayer_opt), result::unsat);
      }
    }

    // Satisfiable instance under assumptions: the assumption units ride
    // along in the export, flipping the verdict where they bind.
    solver t{exporter_opt};
    load(t, satisfiable, 40);
    ASSERT_EQ(t.solve(), result::sat);
    const bool phase = t.model_value(0);
    const lit agree[1] = {lit{0, !phase}};
    const lit contra[2] = {lit{0, phase}, lit{0, !phase}};
    ASSERT_EQ(t.solve(agree), result::sat);
    std::ostringstream os_sat;
    export_dimacs(os_sat, t, agree);
    std::istringstream is_sat{os_sat.str()};
    EXPECT_EQ(replay_dimacs(is_sat), result::sat);
    std::ostringstream os_unsat;
    export_dimacs(os_unsat, t, contra);
    std::istringstream is_unsat{os_unsat.str()};
    EXPECT_EQ(replay_dimacs(is_unsat), result::unsat);
  }
}

/// An equivalence query exported from the encoder replays standalone to
/// the encoder's own verdict — both polarities, both verdicts.
TEST(SolverDb, EncoderExportedQueryReplays)
{
  net::aig_network aig;
  const auto a = aig.create_pi();
  const auto b = aig.create_pi();
  const auto x1 = aig.create_xor(a, b);
  const auto x2 = aig.create_and(aig.create_or(a, b), !aig.create_and(a, b));
  aig.create_po(x1);
  aig.create_po(x2);

  solver s;
  aig_encoder enc{aig, s};
  EXPECT_EQ(enc.prove_equivalent(x1, x2, false, -1), result::unsat);
  EXPECT_EQ(enc.prove_equivalent(x1, x2, true, -1), result::sat);

  for (const bool complement : {false, true}) {
    std::ostringstream os;
    enc.export_equivalence_query(os, x1, x2, complement);
    for (const solver_options& opt : configs) {
      std::istringstream is{os.str()};
      EXPECT_EQ(replay_dimacs(is, -1, opt),
                complement ? result::sat : result::unsat)
          << "complement=" << complement;
    }
  }
}

/// Same export through the cnf_manager facade (the path bench tooling
/// uses to capture a misbehaving cone query).
TEST(SolverDb, CnfManagerExportedQueryReplays)
{
  net::aig_network aig = gen::make_adder(8);

  // A same-network self-equivalence already closes the export loop:
  // output 0 vs itself is unsat, vs its complement sat.
  sat::cnf_manager cnf{aig, {}};
  const net::signal out0 = aig.po_at(0);
  ASSERT_EQ(cnf.prove_equivalent(out0, out0, false, -1), result::unsat);

  std::ostringstream os;
  cnf.export_equivalence_query(os, out0, out0, false);
  std::istringstream is{os.str()};
  EXPECT_EQ(replay_dimacs(is), result::unsat);

  std::ostringstream os_c;
  cnf.export_equivalence_query(os_c, out0, out0, true);
  std::istringstream is_c{os_c.str()};
  EXPECT_EQ(replay_dimacs(is_c), result::sat);
}

/// Scope-gated propagation stays sound while inprocessing collapses
/// equivalent literals between queries.  Redundant random AIGs supply
/// true equivalences (unsat queries, whose learnt binaries feed the
/// collapsing), simulation-alike false candidates and random pairs
/// (sat queries).  Every sat model must separate the pair under plain
/// circuit evaluation; every unsat answer must be unsat again on a
/// fresh manager without cone scoping.
TEST(SolverDb, GatedPropagationSoundUnderMidRunCollapse)
{
  uint64_t collapsed = 0;
  uint64_t sat_answers = 0;
  uint64_t unsat_answers = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    gen::random_logic_config rc;
    rc.num_pis = 10;
    rc.num_pos = 12;
    rc.num_gates = 260;
    rc.seed = seed;
    const net::aig_network aig = gen::inject_redundancy(
        gen::make_random_logic(rc), gen::redundancy_config{12, 3, seed, 4});

    cnf_manager::params gated;
    gated.inprocess_interval = 3;
    gated.inprocess_min_clauses = 1;
    cnf_manager cnf{aig, gated};
    cnf_manager::params plain;
    plain.cone_scoped_decisions = false;
    plain.inprocess = false;

    std::mt19937_64 rng{seed * 7919u};
    const sim::signature_store sig = sim::simulate_aig(
        aig, sim::pattern_set::random(aig.num_pis(), 64u, seed));
    std::vector<net::node> gates;
    aig.foreach_gate([&](net::node n) { gates.push_back(n); });

    // (a, b, complement): simulation-alike pairs first (mostly
    // equivalent), then random ones.
    struct query
    {
      net::node a, b;
      bool complement;
    };
    std::vector<query> queries;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        const uint64_t wi = sig.word(gates[i], 0u);
        const uint64_t wj = sig.word(gates[j], 0u);
        if (wi == wj || wi == ~wj) {
          queries.push_back(query{gates[i], gates[j], wi != wj});
          break;
        }
      }
    }
    std::uniform_int_distribution<std::size_t> pick{0, gates.size() - 1u};
    for (int k = 0; k < 60; ++k) {
      const net::node a = gates[pick(rng)];
      const net::node b = gates[pick(rng)];
      queries.push_back(query{a, b, (rng() & 1u) != 0u});
    }

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const net::signal a{queries[q].a, false};
      const net::signal b{queries[q].b, false};
      const bool complement = queries[q].complement;
      const result r = cnf.prove_equivalent(a, b, complement, -1);
      ASSERT_NE(r, result::unknown);
      if (r == result::sat) {
        ++sat_answers;
        sim::pattern_set model{aig.num_pis()};
        model.add_pattern(cnf.model_inputs());
        const sim::signature_store value = sim::simulate_aig(aig, model);
        const int va = static_cast<int>(value.word(a.get_node(), 0u) & 1u);
        const int vb = static_cast<int>(value.word(b.get_node(), 0u) & 1u) ^
                       (complement ? 1 : 0);
        EXPECT_NE(va, vb)
            << "seed " << seed << " query " << q
            << ": model does not separate the pair";
      } else {
        ++unsat_answers;
        cnf_manager check{aig, plain};
        EXPECT_EQ(check.prove_equivalent(a, b, complement, -1),
                  result::unsat)
            << "seed " << seed << " query " << q;
      }
    }
    collapsed += cnf.solver_statistics().lits_collapsed;
  }
  // The run must exercise both verdicts and mid-run collapses.
  EXPECT_GT(sat_answers, 0u);
  EXPECT_GT(unsat_answers, 0u);
  EXPECT_GT(collapsed, 0u);
}

/// A collapse rewrites a cone's clauses onto a representative outside
/// that cone: r = x·y is encoded first (smaller variable), and
/// v = x·(y·(x+z)) ≡ r is collapsed onto it.  The scope lists only v's
/// own cone; the representative must join it, or gated propagation
/// stops at v and the query "v ∧ ¬x" (unsat: v implies x) finds a
/// model.
TEST(SolverDb, GatedPropagationFollowsCollapseRepresentative)
{
  solver s;
  const var x = s.new_var();
  const var y = s.new_var();
  const var r = s.new_var();
  const var z = s.new_var();
  const var o = s.new_var(); // ¬x · ¬z, i.e. ¬(x + z)
  const var t = s.new_var(); // y · (x + z)
  const var v = s.new_var(); // x · t
  const auto define_and = [&](var g, lit a, lit b) {
    s.add_clause({neg(g), a});
    s.add_clause({neg(g), b});
    s.add_clause({pos(g), ~a, ~b});
  };
  define_and(r, pos(x), pos(y));
  define_and(o, neg(x), neg(z));
  define_and(t, pos(y), neg(o));
  define_and(v, pos(x), pos(t));
  // The proven equivalence r ≡ v, as the binaries an earlier query's
  // learnt clauses would leave behind.
  s.add_clause({neg(r), pos(v)});
  s.add_clause({pos(r), neg(v)});

  const inprocessor::outcome out = inprocessor::run(s, {}, nullptr);
  ASSERT_FALSE(out.unsat);
  ASSERT_GE(out.lits_collapsed, 1u);

  const var cone[] = {x, y, z, o, t, v};
  s.set_decision_vars(cone);
  const lit refute[2] = {pos(v), neg(x)};
  EXPECT_EQ(s.solve(refute), result::unsat);
  const lit force[1] = {pos(v)};
  ASSERT_EQ(s.solve(force), result::sat);
  EXPECT_TRUE(s.model_value(x));
  EXPECT_TRUE(s.model_value(y));
  EXPECT_TRUE(s.model_value(r));
}

/// Variables outside the scope stay unassigned and read their saved
/// phase in the model instead of a fixed false.
TEST(SolverDb, UnassignedModelVariablesReadSavedPhase)
{
  solver s;
  const var a = s.new_var();
  const var c = s.new_var(); // outside the scope
  const var scope[] = {a};
  s.set_decision_vars(scope);
  s.set_phase(c, true);
  const lit force[1] = {pos(a)};
  ASSERT_EQ(s.solve(force), result::sat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(c));
  s.set_phase(c, false);
  ASSERT_EQ(s.solve(force), result::sat);
  EXPECT_FALSE(s.model_value(c));
}

} // namespace
