#include "ipa/summaries.hpp"

#include <algorithm>
#include <functional>

#include "analysis/dataflow.hpp"
#include "frontend/ast_serialize.hpp"
#include "ipa/summary_cache.hpp"
#include "support/thread_pool.hpp"

namespace fortd {

// ---------------------------------------------------------------------------
// OverlapOffsets
// ---------------------------------------------------------------------------

void OverlapOffsets::ensure_rank(int rank) {
  pos.resize(static_cast<size_t>(rank), 0);
  neg.resize(static_cast<size_t>(rank), 0);
}

void OverlapOffsets::merge(const OverlapOffsets& o) {
  ensure_rank(static_cast<int>(std::max(pos.size(), o.pos.size())));
  for (size_t d = 0; d < o.pos.size(); ++d) {
    pos[d] = std::max(pos[d], o.pos[d]);
    neg[d] = std::max(neg[d], o.neg[d]);
  }
}

std::string OverlapOffsets::str() const {
  std::string s = "(";
  for (size_t d = 0; d < pos.size(); ++d) {
    if (d) s += ",";
    s += "-" + std::to_string(neg[d]) + "/+" + std::to_string(pos[d]);
  }
  return s + ")";
}

// ---------------------------------------------------------------------------
// Decomposition helpers
// ---------------------------------------------------------------------------

std::optional<DecompSpec> spec_for_array(
    const Stmt& distribute, const std::string& array, int array_rank,
    const std::map<std::string, AlignInfo>& align) {
  DecompSpec spec;
  spec.dists.assign(static_cast<size_t>(array_rank), DistSpec{});
  if (distribute.dist_target == array) {
    // Direct distribution of the array itself (implicit identity
    // alignment with a default decomposition).
    for (size_t d = 0; d < distribute.dist_specs.size() &&
                       d < static_cast<size_t>(array_rank);
         ++d)
      spec.dists[d] = distribute.dist_specs[d];
    return spec;
  }
  auto it = align.find(array);
  if (it == align.end() || it->second.target != distribute.dist_target)
    return std::nullopt;
  const std::vector<int>& perm = it->second.perm;
  for (size_t decomp_dim = 0;
       decomp_dim < distribute.dist_specs.size() && decomp_dim < perm.size();
       ++decomp_dim) {
    int array_dim = perm[decomp_dim];
    if (array_dim >= 0 && array_dim < array_rank)
      spec.dists[static_cast<size_t>(array_dim)] =
          distribute.dist_specs[decomp_dim];
  }
  return spec;
}

std::vector<std::string> affected_arrays(
    const Stmt& distribute, const Procedure& proc, const SymbolTable& st,
    const std::map<std::string, AlignInfo>& align) {
  std::vector<std::string> out;
  const Symbol* target = st.lookup(distribute.dist_target);
  if (target && target->is_array()) {
    out.push_back(distribute.dist_target);
  }
  for (const auto& [array, info] : align)
    if (info.target == distribute.dist_target) out.push_back(array);
  (void)proc;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Local reaching decompositions (point-wise, via the data-flow framework)
// ---------------------------------------------------------------------------

namespace {

struct DecompFact {
  std::string array;
  const Stmt* def;  // nullptr = the inherited decomposition (⊤)
};

std::map<std::string, AlignInfo> collect_alignments(const Procedure& proc) {
  std::map<std::string, AlignInfo> align;
  walk_stmts(proc.body, [&](const Stmt& s) {
    if (s.kind != StmtKind::Align) return;
    align[s.align_array] = AlignInfo{s.align_target, s.align_perm};
  });
  return align;
}

}  // namespace

std::map<const Stmt*, std::map<std::string, std::set<DecompSpec>>>
compute_local_reaching(const BoundProgram& program, const Procedure& proc,
                       const std::map<std::string, std::set<DecompSpec>>& inherited) {
  const SymbolTable& st = program.symtab(proc.name);
  auto align = collect_alignments(proc);

  // Build the fact universe: one inherited fact per array, plus one fact
  // per (distribute statement, affected array).
  std::vector<DecompFact> facts;
  std::map<std::string, std::vector<int>> facts_of_array;
  for (const std::string& a : st.array_names()) {
    facts_of_array[a].push_back(static_cast<int>(facts.size()));
    facts.push_back({a, nullptr});
  }
  walk_stmts(proc.body, [&](const Stmt& s) {
    if (s.kind != StmtKind::Distribute) return;
    for (const std::string& a : affected_arrays(s, proc, st, align)) {
      facts_of_array[a].push_back(static_cast<int>(facts.size()));
      facts.push_back({a, &s});
    }
  });

  const int n = static_cast<int>(facts.size());
  Cfg cfg = Cfg::build(proc);

  auto fact_of = [&](const std::string& array, const Stmt* def) {
    for (int f : facts_of_array[array])
      if (facts[static_cast<size_t>(f)].def == def) return f;
    return -1;
  };

  // Per-statement transfer: DISTRIBUTE kills all facts of affected arrays,
  // generates its own.
  auto apply_stmt = [&](const Stmt& s, BitSet& set) {
    if (s.kind != StmtKind::Distribute) return;
    for (const std::string& a : affected_arrays(s, proc, st, align)) {
      for (int f : facts_of_array[a]) set.reset(f);
      int f = fact_of(a, &s);
      if (f >= 0) set.set(f);
    }
  };

  DataflowProblem problem;
  problem.num_facts = n;
  problem.forward = true;
  problem.may = true;
  problem.gen.assign(static_cast<size_t>(cfg.size()), BitSet(n));
  problem.kill.assign(static_cast<size_t>(cfg.size()), BitSet(n));
  problem.boundary = BitSet(n);
  for (const auto& [a, fs] : facts_of_array)
    problem.boundary.set(fs[0]);  // the inherited fact

  for (const auto& blk : cfg.blocks()) {
    BitSet gen(n), kill(n);
    for (const Stmt* s : blk.stmts) {
      if (s->kind != StmtKind::Distribute) continue;
      for (const std::string& a : affected_arrays(*s, proc, st, align)) {
        for (int f : facts_of_array[a]) {
          kill.set(f);
          gen.reset(f);
        }
        int f = fact_of(a, s);
        if (f >= 0) gen.set(f);
      }
    }
    problem.gen[static_cast<size_t>(blk.id)] = std::move(gen);
    problem.kill[static_cast<size_t>(blk.id)] = std::move(kill);
  }

  DataflowResult res = solve_dataflow(cfg, problem);

  // Convert bit-level facts at each statement into DecompSpec sets.
  std::map<const Stmt*, std::map<std::string, std::set<DecompSpec>>> out;
  for (const auto& blk : cfg.blocks()) {
    BitSet cur = res.in[static_cast<size_t>(blk.id)];
    if (blk.id == cfg.entry()) cur = problem.boundary;
    for (const Stmt* s : blk.stmts) {
      std::map<std::string, std::set<DecompSpec>> at;
      for (int f : cur.members()) {
        const DecompFact& fact = facts[static_cast<size_t>(f)];
        const Symbol* sym = st.lookup(fact.array);
        if (!sym) continue;
        if (fact.def == nullptr) {
          // Inherited: expand through `inherited` when present, else ⊤.
          auto it = inherited.find(fact.array);
          if (it != inherited.end() && !it->second.empty()) {
            for (const auto& spec : it->second) at[fact.array].insert(spec);
          } else {
            at[fact.array].insert(DecompSpec::top());
          }
        } else {
          auto spec =
              spec_for_array(*fact.def, fact.array, sym->rank(), align);
          if (spec) at[fact.array].insert(*spec);
        }
      }
      out[s] = std::move(at);
      apply_stmt(*s, cur);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Procedure digest
// ---------------------------------------------------------------------------

uint64_t hash_procedure(const Procedure& proc) {
  BinaryWriter w(/*positions=*/false);
  write_procedure(w, proc);
  return fnv1a(w.bytes());
}

// ---------------------------------------------------------------------------
// compute_summary
// ---------------------------------------------------------------------------

namespace {

/// Evaluate the section an array reference touches given the loop context;
/// falls back to the whole declared dimension when a subscript cannot be
/// bounded.
Rsd ref_section(const Expr& ref, const Symbol& sym, const SymbolicEnv& env) {
  std::vector<Triplet> dims;
  for (size_t d = 0; d < ref.args.size() && d < sym.dims.size(); ++d) {
    auto range = eval_range(*ref.args[d], env);
    if (range) {
      dims.push_back(*range);
    } else {
      auto [lb, ub] = sym.dims[d];
      dims.push_back(sym.dims_const ? Triplet(lb, ub) : Triplet(1, 1 << 20));
    }
  }
  return Rsd(std::move(dims));
}

}  // namespace

ProcSummary compute_summary(const BoundProgram& program, const std::string& name) {
  const Procedure* proc = program.find(name);
  if (!proc) throw CompileError({}, "compute_summary: unknown procedure " + name);
  const SymbolTable& st = program.symtab(name);

  ProcSummary sum;
  sum.proc = name;
  sum.align = collect_alignments(*proc);

  SymbolicEnv base_env = SymbolicEnv::from_params(*proc, st);

  // Walk with a loop-range stack for section evaluation.
  std::function<void(const std::vector<StmtPtr>&, SymbolicEnv&)> visit =
      [&](const std::vector<StmtPtr>& stmts, SymbolicEnv& env) {
        for (const auto& s : stmts) {
          switch (s->kind) {
            case StmtKind::Assign: {
              // lhs: MOD (+ def section); subscripts are reads.
              if (s->lhs->kind == ExprKind::VarRef) {
                sum.mod.insert(s->lhs->name);
              } else {
                sum.mod.insert(s->lhs->name);
                const Symbol* sym = st.lookup(s->lhs->name);
                if (sym && sym->is_array())
                  sum.defs[s->lhs->name].add_coalescing(
                      ref_section(*s->lhs, *sym, env));
                for (const auto& sub : s->lhs->args)
                  walk_expr(*sub, [&](const Expr& e) {
                    if (e.kind == ExprKind::VarRef) sum.ref.insert(e.name);
                  });
              }
              walk_expr(*s->rhs, [&](const Expr& e) {
                if (e.kind == ExprKind::VarRef) sum.ref.insert(e.name);
                if (e.kind == ExprKind::ArrayRef) {
                  sum.ref.insert(e.name);
                  const Symbol* sym = st.lookup(e.name);
                  if (sym && sym->is_array())
                    sum.uses[e.name].add_coalescing(ref_section(e, *sym, env));
                }
              });
              // Overlap offsets: rhs subscript constant offsets relative to
              // the lhs subscript in the same dimension (Fig. 13).
              if (s->lhs->kind == ExprKind::ArrayRef) {
                walk_expr(*s->rhs, [&](const Expr& e) {
                  if (e.kind != ExprKind::ArrayRef) return;
                  const Symbol* sym = st.lookup(e.name);
                  if (!sym || !sym->is_array()) return;
                  OverlapOffsets& ov = sum.overlaps[e.name];
                  ov.ensure_rank(sym->rank());
                  for (size_t d = 0; d < e.args.size() &&
                                     d < static_cast<size_t>(sym->rank());
                       ++d) {
                    auto rf = extract_affine(*e.args[d], env.consts);
                    if (!rf) continue;
                    int64_t rel = rf->konst;
                    if (e.name == s->lhs->name && d < s->lhs->args.size()) {
                      auto lf = extract_affine(*s->lhs->args[d], env.consts);
                      if (lf && (*rf - *lf).is_constant())
                        rel = (*rf - *lf).konst;
                      else if (!lf)
                        continue;
                    } else if (!rf->vars().empty()) {
                      // Offset relative to the loop variable's position:
                      // keep the constant addend.
                    } else {
                      continue;  // pure constant subscript: not an overlap
                    }
                    if (rel > 0)
                      ov.pos[d] = std::max(ov.pos[d], rel);
                    else if (rel < 0)
                      ov.neg[d] = std::max(ov.neg[d], -rel);
                  }
                });
              }
              break;
            }
            case StmtKind::Call: {
              for (const auto& a : s->call_args)
                walk_expr(*a, [&](const Expr& e) {
                  if (e.kind == ExprKind::VarRef || e.kind == ExprKind::ArrayRef)
                    sum.ref.insert(e.name);
                });
              break;
            }
            case StmtKind::If: {
              walk_expr(*s->cond, [&](const Expr& e) {
                if (e.kind == ExprKind::VarRef || e.kind == ExprKind::ArrayRef)
                  sum.ref.insert(e.name);
              });
              visit(s->then_body, env);
              visit(s->else_body, env);
              break;
            }
            case StmtKind::Do: {
              sum.mod.insert(s->loop_var);
              for (const Expr* b : {s->lb.get(), s->ub.get(), s->step.get()}) {
                if (!b) continue;
                walk_expr(*b, [&](const Expr& e) {
                  if (e.kind == ExprKind::VarRef) sum.ref.insert(e.name);
                });
              }
              auto lb = eval_int(*s->lb, env);
              auto ub = eval_int(*s->ub, env);
              auto stp = s->step ? eval_int(*s->step, env)
                                 : std::optional<int64_t>(1);
              SymbolicEnv inner = env;
              if (lb && ub && stp && *stp > 0)
                inner.ranges[s->loop_var] = Triplet(*lb, *ub, *stp);
              else
                inner.ranges.erase(s->loop_var);
              visit(s->body, inner);
              break;
            }
            case StmtKind::Distribute:
              sum.distribute_stmts.push_back(s.get());
              break;
            default:
              break;
          }
        }
      };
  visit(proc->body, base_env);

  // Dynamic data decomposition: any DISTRIBUTE that is *not* part of the
  // initial straight-line prologue redefines a decomposition mid-flight.
  // A simpler sound test used here: a procedure that has callers (i.e. a
  // subroutine) redistributing anything, or a DISTRIBUTE preceded by any
  // executable statement.
  bool seen_exec = false;
  for (const auto& s : proc->body) {
    if (s->kind == StmtKind::Distribute && seen_exec) sum.has_dynamic_decomp = true;
    if (s->kind != StmtKind::Align && s->kind != StmtKind::Distribute)
      seen_exec = true;
  }
  if (!proc->is_program && !sum.distribute_stmts.empty())
    sum.has_dynamic_decomp = true;

  // LocalReaching at each call site (Fig. 6, local analysis phase): use the
  // point-wise reaching solution with ⊤ kept explicit.
  auto reaching = compute_local_reaching(program, *proc, {});
  walk_stmts(proc->body, [&](const Stmt& s) {
    if (s.kind != StmtKind::Call) return;
    LocalReachingEntry entry;
    entry.call_stmt = &s;
    entry.callee = s.callee;
    auto it = reaching.find(&s);
    if (it != reaching.end()) {
      // Record reaching specs for array actuals and all global arrays.
      auto record = [&](const std::string& var) {
        auto vit = it->second.find(var);
        if (vit != it->second.end()) entry.reaching[var] = vit->second;
      };
      for (const auto& a : s.call_args)
        if (a->kind == ExprKind::VarRef) {
          const Symbol* sym = st.lookup(a->name);
          if (sym && sym->is_array()) record(a->name);
        }
      for (const std::string& arr : st.array_names()) {
        const Symbol* sym = st.lookup(arr);
        if (sym && sym->is_global()) record(arr);
      }
    }
    sum.local_reaching.push_back(std::move(entry));
  });

  return sum;
}

void compute_summaries_into(const BoundProgram& program,
                            const std::vector<std::string>& names,
                            std::map<std::string, ProcSummary>& out,
                            ThreadPool* pool, IpaSummaryCache* cache,
                            SummaryPhaseStats* stats) {
  std::vector<ProcSummary> slots(names.size());
  std::vector<char> from_cache(names.size(), 0);
  auto one = [&](size_t i) {
    const Procedure* proc = program.find(names[i]);
    if (!proc)
      throw CompileError({}, "compute_summaries: unknown procedure " + names[i]);
    const uint64_t h = hash_procedure(*proc);
    if (cache) {
      if (auto hit = cache->lookup(h, *proc)) {
        slots[i] = std::move(*hit);
        from_cache[i] = 1;
        return;
      }
    }
    slots[i] = compute_summary(program, names[i]);
    slots[i].hash = h;
    if (cache) cache->insert(h, *proc, slots[i]);
  };
  if (pool) {
    pool->parallel_for(names.size(), one);
  } else {
    for (size_t i = 0; i < names.size(); ++i) one(i);
  }
  // Merge in deterministic name order; results are per-procedure pure, so
  // the map content is identical for every schedule.
  for (size_t i = 0; i < names.size(); ++i) {
    out[names[i]] = std::move(slots[i]);
    if (stats) ++(from_cache[i] ? stats->cached : stats->computed);
  }
}

std::map<std::string, ProcSummary> compute_all_summaries(
    const BoundProgram& program, ThreadPool* pool, IpaSummaryCache* cache,
    SummaryPhaseStats* stats) {
  std::vector<std::string> names;
  names.reserve(program.ast.procedures.size());
  for (const auto& proc : program.ast.procedures) names.push_back(proc->name);
  std::map<std::string, ProcSummary> out;
  compute_summaries_into(program, names, out, pool, cache, stats);
  return out;
}

std::map<std::string, ProcSummary> compute_all_summaries(
    const BoundProgram& program) {
  return compute_all_summaries(program, nullptr, nullptr, nullptr);
}

}  // namespace fortd
