#include "sat/inprocess.hpp"

#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <numeric>

namespace stps::sat {

namespace {

enum class norm_result
{
  keep, ///< clause survives with >= 2 literals
  drop, ///< tautology or satisfied at level 0 — needs no representation
  unit, ///< exactly one literal left
  empty ///< all literals false at level 0 — database is unsat
};

lbool value_at(const std::vector<lbool>& assigns, lit l)
{
  return assigns[l.variable()] ^ l.sign();
}

/// Level-0 normalization: sort, dedupe, detect tautology / satisfied,
/// drop false literals.
norm_result normalize(std::vector<lit>& c, const std::vector<lbool>& assigns)
{
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  std::size_t j = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i + 1u < c.size() && c[i + 1u] == ~c[i]) {
      return norm_result::drop;
    }
    const lbool v = value_at(assigns, c[i]);
    if (v == lbool::l_true) {
      return norm_result::drop;
    }
    if (v == lbool::l_undef) {
      c[j++] = c[i];
    }
  }
  c.resize(j);
  if (c.empty()) {
    return norm_result::empty;
  }
  return c.size() == 1u ? norm_result::unit : norm_result::keep;
}

uint64_t signature(const clause_db::clause& c)
{
  uint64_t sig = 0;
  for (const lit l : c) {
    sig |= uint64_t{1} << (l.x & 63u);
  }
  return sig;
}

} // namespace

bool inprocessor::collapse(solver& s, outcome& out)
{
  const binary_graph::equivalences eq =
      s.bin_.compute_equivalences(s.assigns_);
  if (eq.contradiction) {
    s.ok_ = false;
    out.unsat = true;
    return false;
  }
  if (eq.mapped.empty()) {
    return true;
  }

  // Substitution onto class representatives (one level deep by
  // construction: a representative never appears on the left).
  std::vector<lit> subst(s.num_vars());
  for (var v = 0; v < s.num_vars(); ++v) {
    subst[v] = lit{v, false};
  }
  for (const auto& [v, rep] : eq.mapped) {
    subst[v] = rep;
    s.rep_[v] = rep.variable(); // set_decision_vars pulls it into scope
  }
  const auto sub = [&](lit l) {
    return l.sign() ? ~subst[l.variable()] : subst[l.variable()];
  };

  // Rewrite every arena clause whose literals are touched.  Freed
  // clauses are detached and unhooked first, so the clause lists stay
  // GC-consistent even when an empty clause surfaces mid-rewrite.
  bool failed = false;
  std::vector<lit> scratch;
  const auto rewrite_list = [&](std::vector<cref>& list, bool learnt) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const cref cr = list[i];
      if (failed) {
        list[j++] = cr;
        continue;
      }
      clause_db::clause& c = s.db_.deref(cr);
      bool touched = false;
      for (const lit l : c) {
        if (subst[l.variable()].variable() != l.variable()) {
          touched = true;
          break;
        }
      }
      if (!touched) {
        list[j++] = cr;
        continue;
      }
      s.detach(cr);
      s.unhook_reasons(cr);
      scratch.assign(c.begin(), c.end());
      for (lit& l : scratch) {
        l = sub(l);
      }
      switch (normalize(scratch, s.assigns_)) {
      case norm_result::drop:
        s.db_.free_clause(cr);
        break;
      case norm_result::empty:
        s.db_.free_clause(cr);
        s.ok_ = false;
        out.unsat = true;
        failed = true;
        break;
      case norm_result::unit:
        s.db_.free_clause(cr);
        if (s.value(scratch[0]) == lbool::l_undef) {
          s.enqueue(scratch[0], solver::reason_none);
        }
        break;
      case norm_result::keep:
        if (scratch.size() == 2u && s.opt_.implicit_binaries) {
          s.db_.free_clause(cr);
          s.bin_.add(scratch[0], scratch[1], learnt);
          ++s.stats_.binary_clauses;
        } else {
          const uint32_t old_size = c.size();
          c.header = (static_cast<uint32_t>(scratch.size())
                      << clause_db::clause::size_shift) |
                     (c.header & clause_db::clause::flag_learnt);
          std::copy(scratch.begin(), scratch.end(), c.begin());
          if (scratch.size() < old_size) {
            s.db_.note_shrunk(old_size -
                              static_cast<uint32_t>(scratch.size()));
          }
          s.attach(cr);
          list[j++] = cr;
        }
        break;
      }
    }
    list.resize(j);
  };
  rewrite_list(s.clauses_, false);
  rewrite_list(s.learnts_, true);

  // Rebuild the binary graph under the substitution.  Intra-class
  // edges become tautologies and vanish; duplicates collapse to one
  // copy (problem provenance wins so the survivor cannot be purged).
  struct bin_clause
  {
    lit a, b;
    uint32_t learnt;
  };
  std::vector<bin_clause> bins;
  s.bin_.for_each_clause([&](lit a, lit b, bool learnt) {
    bins.push_back(bin_clause{a, b, learnt ? 1u : 0u});
  });
  s.bin_.clear();
  std::vector<bin_clause> kept_bins;
  std::vector<lit> two;
  for (const bin_clause& bc : bins) {
    two.assign({sub(bc.a), sub(bc.b)});
    switch (normalize(two, s.assigns_)) {
    case norm_result::drop:
      break;
    case norm_result::empty:
      s.ok_ = false;
      out.unsat = true;
      failed = true;
      break;
    case norm_result::unit:
      if (s.value(two[0]) == lbool::l_undef) {
        s.enqueue(two[0], solver::reason_none);
      }
      break;
    case norm_result::keep:
      kept_bins.push_back(bin_clause{two[0], two[1], bc.learnt});
      break;
    }
  }
  std::sort(kept_bins.begin(), kept_bins.end(),
            [](const bin_clause& x, const bin_clause& y) {
              if (x.a.x != y.a.x) {
                return x.a.x < y.a.x;
              }
              if (x.b.x != y.b.x) {
                return x.b.x < y.b.x;
              }
              return x.learnt < y.learnt;
            });
  kept_bins.erase(std::unique(kept_bins.begin(), kept_bins.end(),
                              [](const bin_clause& x, const bin_clause& y) {
                                return x.a == y.a && x.b == y.b;
                              }),
                  kept_bins.end());
  for (const bin_clause& bc : kept_bins) {
    s.bin_.add(bc.a, bc.b, bc.learnt != 0u); // re-add: no stats increment
  }

  // Defining equivalences (¬v ∨ rep), (v ∨ ¬rep): the eliminated
  // variable keeps propagating from its representative, which preserves
  // the support-closure contract of set_decision_vars.
  for (const auto& [v, rep] : eq.mapped) {
    s.bin_.add(lit{v, true}, rep, false);
    s.bin_.add(lit{v, false}, ~rep, false);
    s.stats_.binary_clauses += 2u;
  }
  out.lits_collapsed += eq.mapped.size();

  if (failed) {
    return false;
  }
  if (s.propagate().valid()) {
    s.ok_ = false;
    out.unsat = true;
    return false;
  }
  return true;
}

void inprocessor::subsume(solver& s, const limits& lim,
                          resource_hooks* hooks, outcome& out)
{
  // Backward subsumption over the arena, signature-filtered.  Subsumer
  // order is (size, cref) ascending, graph binaries first; a problem
  // clause may only be deleted by a problem subsumer (a learnt subsumer
  // can itself be reduced away later, which would leave the database
  // weaker than the problem).
  std::vector<cref> all;
  all.reserve(s.clauses_.size() + s.learnts_.size());
  all.insert(all.end(), s.clauses_.begin(), s.clauses_.end());
  all.insert(all.end(), s.learnts_.begin(), s.learnts_.end());
  if (all.empty()) {
    return;
  }

  std::vector<uint64_t> sigs(all.size());
  std::vector<std::vector<uint32_t>> occ(2u * s.num_vars());
  for (uint32_t i = 0; i < all.size(); ++i) {
    const clause_db::clause& c = s.db_.deref(all[i]);
    sigs[i] = signature(c);
    for (const lit l : c) {
      occ[l.x].push_back(i);
    }
  }

  uint64_t checks = 0;
  uint64_t deleted = 0;
  const auto erase_clause = [&](cref cr) {
    s.unhook_reasons(cr);
    s.detach(cr);
    s.db_.free_clause(cr);
    ++deleted;
  };

  // Graph binaries as subsumers: (a ∨ b) deletes any arena clause
  // containing both literals (provenance permitting).
  s.bin_.for_each_clause([&](lit a, lit b, bool learnt) {
    if (checks >= lim.subsumption_checks) {
      return;
    }
    for (const uint32_t di : occ[a.x]) {
      if (++checks > lim.subsumption_checks) {
        return;
      }
      const cref dr = all[di];
      const clause_db::clause& d = s.db_.deref(dr);
      if (d.removed() || (learnt && !d.learnt())) {
        continue;
      }
      bool has_b = false;
      for (const lit l : d) {
        if (l == b) {
          has_b = true;
          break;
        }
      }
      if (has_b) {
        erase_clause(dr);
      }
    }
  });

  std::vector<uint32_t> order(all.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    const uint32_t sx = s.db_.deref(all[x]).size();
    const uint32_t sy = s.db_.deref(all[y]).size();
    if (sx != sy) {
      return sx < sy;
    }
    return all[x] < all[y];
  });

  std::vector<uint32_t> mark(2u * s.num_vars(), 0u);
  uint32_t stamp = 0;
  for (const uint32_t ci : order) {
    if (checks >= lim.subsumption_checks ||
        (hooks != nullptr && hooks->should_stop())) {
      break;
    }
    const cref cr = all[ci];
    const clause_db::clause& c = s.db_.deref(cr);
    if (c.removed()) {
      continue;
    }
    ++stamp;
    lit best;
    best.x = 0;
    std::size_t best_occ = ~std::size_t{0};
    for (const lit l : c) {
      mark[l.x] = stamp;
      if (occ[l.x].size() < best_occ) {
        best_occ = occ[l.x].size();
        best = l;
      }
    }
    for (const uint32_t di : occ[best.x]) {
      if (di == ci) {
        continue;
      }
      if (++checks > lim.subsumption_checks) {
        break;
      }
      const cref dr = all[di];
      const clause_db::clause& d = s.db_.deref(dr);
      if (d.removed() || d.size() < c.size() ||
          (c.learnt() && !d.learnt()) ||
          (sigs[ci] & ~sigs[di]) != 0u) {
        continue;
      }
      uint32_t hits = 0;
      for (const lit l : d) {
        if (mark[l.x] == stamp) {
          ++hits;
        }
      }
      if (hits == c.size()) {
        erase_clause(dr);
      }
    }
  }

  if (deleted != 0u) {
    const auto dead = [&](cref cr) { return s.db_.deref(cr).removed(); };
    s.clauses_.erase(
        std::remove_if(s.clauses_.begin(), s.clauses_.end(), dead),
        s.clauses_.end());
    s.learnts_.erase(
        std::remove_if(s.learnts_.begin(), s.learnts_.end(), dead),
        s.learnts_.end());
    out.clauses_subsumed += deleted;
  }
}

bool inprocessor::vivify(solver& s, const limits& lim,
                         resource_hooks* hooks, outcome& out)
{
  // Re-propagate each clause's negation literal by literal (the clause
  // detached so it cannot prop itself, no learning on conflicts) and
  // keep the shortened prefix when propagation closes the clause early.
  // Phase saving is suspended: the probing decisions must not clobber
  // the signature-seeded polarities.
  const uint64_t start_props = s.stats_.propagations;
  s.preserve_phases_ = true;
  bool failed = false;
  std::vector<lit> kept;
  const auto process_list = [&](std::vector<cref>& list, bool learnt) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const cref cr = list[i];
      if (failed ||
          s.stats_.propagations - start_props > lim.vivify_propagations ||
          (hooks != nullptr && (i & 63u) == 0u && hooks->should_stop())) {
        list[j++] = cr;
        continue;
      }
      {
        const clause_db::clause& c = s.db_.deref(cr);
        if (c.size() < 3u || c.size() > lim.vivify_max_size) {
          list[j++] = cr;
          continue;
        }
      }
      s.detach(cr);
      s.unhook_reasons(cr);
      clause_db::clause& c = s.db_.deref(cr);
      kept.clear();
      bool dropped = false;
      for (std::size_t k = 0; k < c.size(); ++k) {
        const lit l = c[k];
        const lbool v = s.value(l);
        if (v == lbool::l_true) {
          // ¬(kept) forces l: the clause shrinks to kept ∪ {l}.
          kept.push_back(l);
          dropped = dropped || k + 1u < c.size();
          break;
        }
        if (v == lbool::l_false) {
          // ¬(kept) forces ¬l: l is redundant in this clause.
          dropped = true;
          continue;
        }
        kept.push_back(l);
        s.trail_lim_.push_back(static_cast<uint32_t>(s.trail_.size()));
        s.enqueue(~l, solver::reason_none);
        if (s.propagate().valid()) {
          // ¬(kept) is contradictory: kept alone is implied.
          dropped = dropped || k + 1u < c.size();
          break;
        }
      }
      s.backtrack(0u);
      if (!dropped) {
        s.attach(cr);
        list[j++] = cr;
        continue;
      }
      // kept may still contain a level-0 satisfied literal (probe hit a
      // fixed value); normalize settles it.
      switch (normalize(kept, s.assigns_)) {
      case norm_result::drop:
        s.db_.free_clause(cr);
        break;
      case norm_result::empty:
        s.db_.free_clause(cr);
        s.ok_ = false;
        out.unsat = true;
        failed = true;
        break;
      case norm_result::unit:
        s.db_.free_clause(cr);
        if (s.value(kept[0]) == lbool::l_undef) {
          s.enqueue(kept[0], solver::reason_none);
          if (s.propagate().valid()) {
            s.ok_ = false;
            out.unsat = true;
            failed = true;
          }
        }
        break;
      case norm_result::keep:
        if (kept.size() == 2u && s.opt_.implicit_binaries) {
          s.db_.free_clause(cr);
          s.bin_.add(kept[0], kept[1], learnt);
          ++s.stats_.binary_clauses;
        } else {
          const uint32_t old_size = c.size();
          c.header = (static_cast<uint32_t>(kept.size())
                      << clause_db::clause::size_shift) |
                     (c.header & clause_db::clause::flag_learnt);
          std::copy(kept.begin(), kept.end(), c.begin());
          s.db_.note_shrunk(old_size - static_cast<uint32_t>(kept.size()));
          s.attach(cr);
          list[j++] = cr;
        }
        break;
      }
      ++out.clauses_strengthened;
    }
    list.resize(j);
  };
  process_list(s.learnts_, true);
  process_list(s.clauses_, false);
  s.preserve_phases_ = false;
  return !failed;
}

inprocessor::outcome inprocessor::run(solver& s, const limits& lim,
                                      resource_hooks* hooks)
{
  outcome out;
  assert(s.decision_level() == 0u);
  if (!s.ok_ || s.num_removables_ != 0u) {
    return out;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto finish = [&]() {
    s.check_garbage();
    s.stats_.lits_collapsed += out.lits_collapsed;
    s.stats_.clauses_subsumed += out.clauses_subsumed;
    s.stats_.inprocess_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return out;
  };
  if (!collapse(s, out)) {
    return finish();
  }
  if (hooks != nullptr && hooks->should_stop()) {
    return finish();
  }
  subsume(s, lim, hooks, out);
  if (hooks != nullptr && hooks->should_stop()) {
    return finish();
  }
  if (!vivify(s, lim, hooks, out)) {
    return finish();
  }
  return finish();
}

} // namespace stps::sat
