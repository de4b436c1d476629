#include "codegen/codegen.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "codegen/dyndecomp.hpp"
#include "codegen/expr_build.hpp"
#include "codegen/runtime_resolution.hpp"
#include "codegen/storage.hpp"
#include "driver/compilation_cache.hpp"
#include "support/thread_pool.hpp"

namespace fortd {

namespace {

/// Stamp `loc` onto every generated statement (recursively) that has no
/// source position of its own, so SPMD-level diagnostics — verifier and
/// deadlock findings — report the originating source line. Statements that
/// already carry a location (e.g. cloned user statements) keep it.
void stamp_locs(std::vector<StmtPtr>& stmts, SourceLoc loc) {
  if (!loc.valid()) return;
  walk_stmts(stmts, [&](Stmt& s) {
    if (!s.loc.valid()) s.loc = loc;
  });
}

void stamp_loc(Stmt& s, SourceLoc loc) {
  if (loc.valid() && !s.loc.valid()) s.loc = loc;
}

/// Analysis result for one effectful statement.
struct StmtPlan {
  IterationSet iset;
  std::vector<CommEvent> events;
  bool runtime = false;
  /// Scalars assigned under an owner guard that must be broadcast because
  /// they are live outside the guarded region.
  std::vector<std::string> bcast_scalars;
  /// Scalars assigned under the guard (for liveness bookkeeping).
  std::vector<std::string> owned_scalars;
  /// Non-empty when this statement is a recognized sum reduction over the
  /// distributed dimension: each processor accumulates a partial into a
  /// temporary, combined by an AllReduce after the reduced loop.
  std::string reduction_scalar;
};

enum class LoopDecision { None, Reduce, GuardWhole };

struct LoopPlan {
  LoopDecision decision = LoopDecision::None;
  OwnershipConstraint constraint;
  std::vector<std::string> bcast_scalars;  // after a GuardWhole loop
  std::vector<std::string> reductions;     // scalars AllReduce'd after Reduce
};

struct FloatingEvent {
  CommEvent ev;
  int origin_seq = 0;
};

struct WriteRec {
  std::string array;
  SymSection sec;
  int seq = 0;
};

struct GenOut {
  std::vector<StmtPtr> stmts;
  std::vector<int> seqs;  // creation sequence of each top-level statement
  std::vector<FloatingEvent> floats;
  std::vector<WriteRec> writes;

  void emit(StmtPtr s, int seq) {
    stmts.push_back(std::move(s));
    seqs.push_back(seq);
  }
};

}  // namespace

// ===========================================================================
// ProcGen: compiles one procedure.
// ===========================================================================

class ProcGen {
public:
  ProcGen(const CodeGenerator& cg, const Procedure& proc)
      : cg_(cg),
        proc_(proc),
        st_(cg.program_.symtab(proc.name)),
        env_(SymbolicEnv::from_params(proc, st_)),
        nprocs_(cg.options_.n_procs) {}

  std::unique_ptr<Procedure> run(ProcExports& exports);

  /// This procedure's contribution to the program-wide counters. ProcGen
  /// deliberately never writes shared CodeGenerator state: instances for
  /// independent procedures run concurrently.
  const CompileStats& stats() const { return stats_; }

private:
  // ---- shared helpers ----------------------------------------------------
  std::optional<DecompSpec> spec_at(const Stmt* stmt,
                                    const std::string& var) const {
    auto specs = cg_.ipa_.reaching.specs_at(proc_.name, stmt, var);
    std::optional<DecompSpec> found;
    for (const auto& s : specs) {
      if (s.is_top) continue;
      if (found && !(*found == s)) return std::nullopt;  // conflicting
      found = s;
    }
    return found;
  }

  std::optional<ArrayDistribution> dist_at(const Stmt* stmt,
                                           const std::string& var) const {
    const Symbol* sym = st_.lookup(var);
    if (!sym || !sym->is_array() || !sym->dims_const) return std::nullopt;
    auto spec = spec_at(stmt, var);
    if (!spec) return std::nullopt;
    return ArrayDistribution(var, *spec, sym->dims, nprocs_);
  }

  bool is_distributed_at(const Stmt* stmt, const std::string& var) const {
    auto d = dist_at(stmt, var);
    return d && !d->replicated_p();
  }

  /// Conservative: the variable may be distributed here (any reaching
  /// spec — including conflicting sets and the inherited top — counts).
  bool may_be_distributed(const Stmt* stmt, const std::string& var) const {
    for (const auto& spec : cg_.ipa_.reaching.specs_at(proc_.name, stmt, var))
      if (spec.is_top || spec.distributed_dims() > 0) return true;
    return false;
  }

  bool forced_runtime() const {
    return cg_.options_.strategy == Strategy::RuntimeResolution ||
           cg_.ipa_.runtime_fallback.count(proc_.name) > 0;
  }

  // ---- pre-pass ------------------------------------------------------------
  void analyze();
  void analyze_list(const std::vector<StmtPtr>& stmts);
  StmtPlan plan_assign(const Stmt& s);
  std::optional<StmtPlan> plan_owner_region(const Stmt& s);
  StmtPlan plan_call(const Stmt& s);
  void decide_loop(const Stmt& loop);
  void refine_scalar_bcasts();
  std::optional<AffineForm> translate_form(const AffineForm& f,
                                           const Procedure& callee,
                                           const CallSiteInfo& site) const;
  bool event_would_export(const CommEvent& ev) const;
  void decide_export();

  // ---- generation ----------------------------------------------------------
  GenOut gen_block(const std::vector<StmtPtr>& in, LoopCtx& lctx);
  void gen_assign(const Stmt& s, GenOut& out, LoopCtx& lctx);
  void gen_call(const Stmt& s, GenOut& out, LoopCtx& lctx);
  void gen_do(const Stmt& s, GenOut& out, LoopCtx& lctx);
  void gen_if(const Stmt& s, GenOut& out, LoopCtx& lctx);
  void gen_distribute(const Stmt& s, GenOut& out, LoopCtx& lctx);
  void float_events(const StmtPlan& plan, GenOut& out);
  void settle_floats_at_loop(const Stmt& loop, GenOut& body, LoopCtx& lctx,
                             GenOut& out);
  void hoist_writes_over_loop(const Stmt& loop, GenOut& body, LoopCtx& lctx,
                              GenOut& out);
  std::vector<StmtPtr> instantiate_event(const CommEvent& ev);
  ExprPtr owner_cond(const OwnershipConstraint& c) const;
  StmtPtr guarded(const OwnershipConstraint& c, std::vector<StmtPtr> body);
  void emit_scalar_bcasts(const OwnershipConstraint& c,
                          const std::vector<std::string>& scalars,
                          GenOut& out, SourceLoc loc = {});
  void insert_blocked(GenOut& block, const FloatingEvent& f,
                      const LoopCtx& lctx);
  void emit_runtime(const Stmt& s, const Stmt* ctx_stmt, GenOut& out);
  bool constraint_consumed(const OwnershipConstraint& c) const;
  StmtPtr reduce_loop_bounds(const Stmt& loop, const OwnershipConstraint& c,
                             std::vector<StmtPtr> body, LoopCtx& lctx);
  DimDistribution constraint_dim(const OwnershipConstraint& c) const;

  const CodeGenerator& cg_;
  const Procedure& proc_;
  const SymbolTable& st_;
  SymbolicEnv env_;
  int nprocs_;
  CompileStats stats_;

  std::map<const Stmt*, StmtPlan> plans_;
  std::map<const Stmt*, LoopPlan> loop_plans_;
  std::map<const Stmt*, std::vector<const Stmt*>> loop_stack_of_;
  std::vector<const Stmt*> cur_loops_;  // during analyze
  std::optional<OwnershipConstraint> export_constraint_;
  bool local_comm_expected_ = false;
  std::vector<OwnershipConstraint> active_reductions_;
  std::map<const Stmt*, std::vector<StmtPtr>> local_remaps_;
  std::set<std::string> reduction_temps_;
  std::map<std::string, std::pair<int64_t, int64_t>> shift_demand_;
  int seq_ = 0;
  bool emitted_comm_ = false;
};

// ---------------------------------------------------------------------------
// Pre-pass
// ---------------------------------------------------------------------------

std::optional<AffineForm> ProcGen::translate_form(
    const AffineForm& f, const Procedure& callee,
    const CallSiteInfo& site) const {
  AffineForm out;
  out.konst = f.konst;
  for (const auto& [v, c] : f.coeffs) {
    if (c == 0) continue;
    int fi = callee.formal_index(v);
    if (fi < 0) {
      out.coeffs[v] += c;
      continue;
    }
    if (fi >= static_cast<int>(site.actuals.size())) return std::nullopt;
    auto actual = extract_affine(*site.actuals[static_cast<size_t>(fi)],
                                 env_.consts);
    if (!actual) return std::nullopt;
    out = out + actual->scaled(c);
  }
  // Normalize zero coefficients away.
  for (auto it = out.coeffs.begin(); it != out.coeffs.end();)
    it = it->second == 0 ? out.coeffs.erase(it) : std::next(it);
  return out;
}

StmtPlan ProcGen::plan_assign(const Stmt& s) {
  StmtPlan plan;
  auto lhs_dist = s.lhs->kind == ExprKind::ArrayRef
                      ? dist_at(&s, s.lhs->name)
                      : std::nullopt;
  // A reference to an array with conflicting reaching decompositions (no
  // unique spec but distributed somewhere) falls back to run-time
  // resolution.
  if (s.lhs->kind == ExprKind::ArrayRef && !lhs_dist) {
    const Symbol* sym = st_.lookup(s.lhs->name);
    if (sym && sym->is_array() &&
        cg_.ipa_.reaching.specs_at(proc_.name, &s, s.lhs->name).size() > 1) {
      plan.runtime = true;
      return plan;
    }
  }
  plan.iset = owner_computes(*s.lhs, lhs_dist, env_);
  if (plan.iset.kind == IterationSet::Kind::RuntimeOnly) {
    plan.runtime = true;
    return plan;
  }

  // Owner-computed scalar pattern, tried first: a scalar assignment whose
  // distributed reads all carry the same distributed-dimension subscript
  // executes on that owner with purely local data (pivot-search
  // accumulations and the like). Whether the scalar then needs a broadcast
  // is decided by refine_scalar_bcasts once all plans exist.
  if (s.lhs->kind == ExprKind::VarRef && plan.iset.is_universal()) {
    std::optional<AffineForm> root;
    std::string root_array;
    int root_dim = -1;
    bool pattern = true;
    int dist_refs = 0;
    walk_expr(*s.rhs, [&](const Expr& e) {
      if (!pattern || e.kind != ExprKind::ArrayRef) return;
      auto rd = dist_at(&s, e.name);
      if (!rd || rd->replicated_p()) return;
      ++dist_refs;
      int dd = rd->dist_dim();
      if (dd < 0 || dd >= static_cast<int>(e.args.size())) {
        pattern = false;
        return;
      }
      auto f = extract_affine(*e.args[static_cast<size_t>(dd)], env_.consts);
      if (!f) {
        pattern = false;
        return;
      }
      if (!root) {
        root = *f;
        root_array = e.name;
        root_dim = dd;
      } else if (root->str() != f->str()) {
        pattern = false;
      }
    });
    if (pattern && dist_refs > 0 && root) {
      OwnershipConstraint c;
      c.array = root_array;
      c.dim = root_dim;
      auto vars = root->vars();
      if (vars.size() == 1 && root->coeff(vars[0]) == 1) {
        c.var = vars[0];
        c.offset = root->konst;
      } else {
        c.fixed = *root;
      }
      // Does the owner vary with an enclosing loop? Then no single
      // processor owns the whole computation; try the reduction pattern
      // (s = s + g): partial sums per processor plus an AllReduce.
      bool owner_varies = false;
      for (const Stmt* loop : cur_loops_)
        if (root->coeff(loop->loop_var) != 0) owner_varies = true;
      if (owner_varies) {
        if (c.uses_var() && s.rhs->kind == ExprKind::Binary &&
            s.rhs->bin_op == BinOp::Add) {
          const Expr* acc = nullptr;
          const Expr* g = nullptr;
          if (s.rhs->args[0]->kind == ExprKind::VarRef &&
              s.rhs->args[0]->name == s.lhs->name) {
            acc = s.rhs->args[0].get();
            g = s.rhs->args[1].get();
          } else if (s.rhs->args[1]->kind == ExprKind::VarRef &&
                     s.rhs->args[1]->name == s.lhs->name) {
            acc = s.rhs->args[1].get();
            g = s.rhs->args[0].get();
          }
          bool g_uses_s = false;
          if (g)
            walk_expr(*g, [&](const Expr& e) {
              if (e.kind == ExprKind::VarRef && e.name == s.lhs->name)
                g_uses_s = true;
            });
          if (acc && g && !g_uses_s) {
            plan.iset = IterationSet::constrained(std::move(c));
            plan.reduction_scalar = s.lhs->name;
            return plan;
          }
        }
        // Owner varies but the statement is not a reduction: run-time
        // resolution is the safe fallback.
        plan.runtime = true;
        return plan;
      }
      plan.iset = IterationSet::constrained(std::move(c));
      plan.owned_scalars.push_back(s.lhs->name);
      return plan;
    }
  }

  // Classify every distributed rhs reference.
  bool needs_runtime = false;
  bool all_bcast_same_root = true;
  std::optional<AffineForm> common_root;
  std::string root_array;
  int root_dim = -1;
  int dist_ref_count = 0;
  walk_expr(*s.rhs, [&](const Expr& e) {
    if (needs_runtime || e.kind != ExprKind::ArrayRef) return;
    auto rd = dist_at(&s, e.name);
    if (!rd) {
      const Symbol* sym = st_.lookup(e.name);
      if (sym && sym->is_array() &&
          cg_.ipa_.reaching.specs_at(proc_.name, &s, e.name).size() > 1)
        needs_runtime = true;
      return;
    }
    if (rd->replicated_p()) return;
    ++dist_ref_count;
    bool rt = false;
    auto ev = classify_reference(e, *rd, plan.iset, lhs_dist, env_, &rt);
    if (rt) {
      needs_runtime = true;
      return;
    }
    if (ev) {
      if (ev->kind == CommEvent::Kind::Shift) {
        // A negative displacement against the owner-computes subscript of
        // the same array is a flow dependence carried by the partitioned
        // loop (upwind stencil): element messages must interleave with
        // computation — run-time resolution stands in for pipelining.
        if (ev->array == plan.iset.constraint.array && ev->shift < 0) {
          needs_runtime = true;
          return;
        }
        all_bcast_same_root = false;
      } else if (ev->kind == CommEvent::Kind::Bcast) {
        if (!common_root) {
          common_root = ev->root_index;
          root_array = ev->array;
          root_dim = ev->dist_dim;
        } else if (common_root->str() != ev->root_index.str()) {
          all_bcast_same_root = false;
        }
      }
      plan.events.push_back(std::move(*ev));
    }
  });
  if (needs_runtime) {
    plan.runtime = true;
    plan.events.clear();
    return plan;
  }

  (void)all_bcast_same_root;
  (void)common_root;
  (void)root_array;
  (void)root_dim;
  (void)dist_ref_count;
  return plan;
}

std::optional<StmtPlan> ProcGen::plan_owner_region(const Stmt& s) {
  // IF statement whose condition reads distributed data: when every
  // distributed read in the whole region shares one owner and every lhs in
  // the region is scalar, the region executes on the owner (guard), with
  // assigned scalars broadcast if live outside.
  std::vector<const Expr*> dist_refs;
  bool only_scalar_writes = true;
  std::function<void(const Stmt&)> scan = [&](const Stmt& stmt) {
    for_each_expr(stmt, [&](const Expr& e) {
      if (e.kind == ExprKind::ArrayRef && is_distributed_at(&s, e.name))
        dist_refs.push_back(&e);
    });
    if (stmt.kind == StmtKind::Assign && stmt.lhs->kind == ExprKind::ArrayRef)
      only_scalar_writes = false;
    if (stmt.kind == StmtKind::Call || stmt.kind == StmtKind::Do)
      only_scalar_writes = false;  // keep the pattern small and sound
    for (const auto& b : stmt.then_body) scan(*b);
    for (const auto& b : stmt.else_body) scan(*b);
  };
  scan(s);
  if (dist_refs.empty() || !only_scalar_writes) return std::nullopt;

  std::optional<AffineForm> root;
  std::string root_array;
  int root_dim = -1;
  for (const Expr* r : dist_refs) {
    auto rd = dist_at(&s, r->name);
    if (!rd || rd->replicated_p()) continue;
    int e = rd->dist_dim();
    if (e < 0 || e >= static_cast<int>(r->args.size())) return std::nullopt;
    auto f = extract_affine(*r->args[static_cast<size_t>(e)], env_.consts);
    if (!f) return std::nullopt;
    if (!root) {
      root = *f;
      root_array = r->name;
      root_dim = e;
    } else if (root->str() != f->str()) {
      return std::nullopt;
    }
  }
  if (!root) return std::nullopt;

  StmtPlan plan;
  OwnershipConstraint c;
  c.array = root_array;
  c.dim = root_dim;
  auto vars = root->vars();
  if (vars.size() == 1 && root->coeff(vars[0]) == 1) {
    c.var = vars[0];
    c.offset = root->konst;
  } else {
    c.fixed = *root;
  }
  plan.iset = IterationSet::constrained(std::move(c));
  // Scalars assigned in the region.
  std::function<void(const Stmt&)> collect = [&](const Stmt& stmt) {
    if (stmt.kind == StmtKind::Assign && stmt.lhs->kind == ExprKind::VarRef)
      plan.owned_scalars.push_back(stmt.lhs->name);
    for (const auto& b : stmt.then_body) collect(*b);
    for (const auto& b : stmt.else_body) collect(*b);
  };
  collect(s);
  return plan;
}

void ProcGen::refine_scalar_bcasts() {
  // A scalar computed under an owner constraint needs a broadcast only
  // when some consumer is not covered by the same constraint: a formal /
  // global (escapes the procedure), a read inside a statement with a
  // different (or no) ownership plan, or a read in plain control
  // structure (loop bounds, unguarded IF conditions) that every processor
  // evaluates.
  //
  // First, index every statement by the plan that owns it (an IF owner
  // region owns its whole subtree).
  std::map<const Stmt*, const Stmt*> owner_of;
  std::function<void(const std::vector<StmtPtr>&, const Stmt*)> index =
      [&](const std::vector<StmtPtr>& stmts, const Stmt* owner) {
        for (const auto& s : stmts) {
          const Stmt* here = plans_.count(s.get()) ? s.get() : owner;
          owner_of[s.get()] = here;
          index(s->then_body, here);
          index(s->else_body, here);
          index(s->body, here);
        }
      };
  index(proc_.body, nullptr);

  for (auto& [def_stmt, plan] : plans_) {
    if (plan.owned_scalars.empty() || !plan.iset.is_constrained()) continue;
    if (!plan.reduction_scalar.empty()) continue;  // AllReduce handles it
    const OwnershipConstraint& c = plan.iset.constraint;
    for (const std::string& scalar : plan.owned_scalars) {
      bool need = false;
      const Symbol* sym = st_.lookup(scalar);
      if (sym && (sym->formal_index >= 0 || sym->is_global())) need = true;
      if (!need) {
        walk_stmts(proc_.body, [&](const Stmt& s) {
          if (need) return;
          bool reads = false;
          // Reads: every expression except an assignment's own lhs base.
          auto check = [&](const ExprPtr& e) {
            if (e) walk_expr(*e, [&](const Expr& x) {
              if (x.kind == ExprKind::VarRef && x.name == scalar) reads = true;
            });
          };
          check(s.rhs);
          check(s.cond);
          check(s.lb);
          check(s.ub);
          check(s.step);
          if (s.lhs && s.lhs->kind == ExprKind::ArrayRef)
            for (const auto& sub : s.lhs->args) check(const_cast<ExprPtr&>(sub));
          for (const auto& a : s.call_args) check(const_cast<ExprPtr&>(a));
          if (!reads) return;
          auto oit = owner_of.find(&s);
          const Stmt* owner = oit == owner_of.end() ? nullptr : oit->second;
          if (!owner) {
            need = true;
            return;
          }
          const StmtPlan& op = plans_.at(owner);
          if (!op.iset.is_constrained() || !(op.iset.constraint == c))
            need = true;
        });
      }
      if (need) plan.bcast_scalars.push_back(scalar);
    }
  }
}

StmtPlan ProcGen::plan_call(const Stmt& s) {
  StmtPlan plan;  // default universal
  const CallSiteInfo* site = cg_.ipa_.acg.site_for(&s);
  if (!site) return plan;  // intrinsic call
  auto it = cg_.exports_.find(s.callee);
  if (it == cg_.exports_.end()) return plan;
  const ProcExports& ex = it->second;
  const Procedure* callee = cg_.program_.find(s.callee);
  if (!callee) return plan;

  if (ex.iter_set.is_constrained()) {
    const OwnershipConstraint& c = ex.iter_set.constraint;
    OwnershipConstraint t;
    t.dim = c.dim;
    t.offset = c.offset;
    // Translate the constraining array name.
    int ai = callee->formal_index(c.array);
    if (ai >= 0) {
      if (ai < static_cast<int>(site->actuals.size()) &&
          site->actuals[static_cast<size_t>(ai)]->kind == ExprKind::VarRef)
        t.array = site->actuals[static_cast<size_t>(ai)]->name;
    } else {
      t.array = c.array;  // global
    }
    // Translate the constraint variable / fixed form.
    bool ok = !t.array.empty();
    if (ok && c.uses_var()) {
      AffineForm vf;
      vf.coeffs[c.var] = 1;
      auto tf = translate_form(vf, *callee, *site);
      if (!tf) {
        ok = false;
      } else {
        auto vars = tf->vars();
        if (vars.size() == 1 && tf->coeff(vars[0]) == 1) {
          t.var = vars[0];
          t.offset = c.offset + tf->konst;
        } else {
          t.fixed = *tf + AffineForm{{}, c.offset};
        }
      }
    } else if (ok) {
      auto tf = translate_form(c.fixed, *callee, *site);
      if (!tf)
        ok = false;
      else
        t.fixed = *tf;
    }
    if (ok) plan.iset = IterationSet::constrained(std::move(t));
    // When translation fails the call stays universal — the callee still
    // guards nothing, so fall back to run-time resolution safety: mark
    // runtime (conservative, should not happen for supported programs).
    if (!ok) plan.runtime = true;
  }
  return plan;
}

void ProcGen::analyze_list(const std::vector<StmtPtr>& stmts) {
  for (const auto& s : stmts) {
    loop_stack_of_[s.get()] = cur_loops_;
    switch (s->kind) {
      case StmtKind::Assign: {
        StmtPlan plan = forced_runtime() ? StmtPlan{} : plan_assign(*s);
        if (forced_runtime()) {
          bool touches_dist = false;
          for_each_expr(*s, [&](const Expr& e) {
            if (e.kind == ExprKind::ArrayRef && may_be_distributed(s.get(), e.name))
              touches_dist = true;
          });
          plan.runtime = touches_dist;
        }
        plans_[s.get()] = std::move(plan);
        break;
      }
      case StmtKind::Call:
        plans_[s.get()] = plan_call(*s);
        break;
      case StmtKind::If: {
        std::optional<StmtPlan> region =
            forced_runtime() ? std::nullopt : plan_owner_region(*s);
        if (region) {
          plans_[s.get()] = std::move(*region);
        } else {
          analyze_list(s->then_body);
          analyze_list(s->else_body);
        }
        break;
      }
      case StmtKind::Do: {
        cur_loops_.push_back(s.get());
        // Track the loop range for symbolic section evaluation.
        auto lb = eval_int(*s->lb, env_);
        auto ub = eval_int(*s->ub, env_);
        auto stp = s->step ? eval_int(*s->step, env_) : std::optional<int64_t>(1);
        bool pushed = false;
        if (lb && ub && stp && *stp > 0) {
          env_.ranges[s->loop_var] = Triplet(*lb, *ub, *stp);
          pushed = true;
        }
        analyze_list(s->body);
        if (pushed) env_.ranges.erase(s->loop_var);
        cur_loops_.pop_back();
        break;
      }
      default:
        break;
    }
  }
}

void ProcGen::decide_loop(const Stmt& loop) {
  LoopPlan lp;
  std::optional<OwnershipConstraint> unified;
  bool reducible = true;
  bool bcast_blocks_reduce = false;
  std::vector<std::string> bcast_scalars;
  std::vector<std::string> reductions;

  std::function<void(const std::vector<StmtPtr>&)> scan =
      [&](const std::vector<StmtPtr>& stmts) {
        for (const auto& s : stmts) {
          auto it = plans_.find(s.get());
          if (it != plans_.end()) {
            const StmtPlan& p = it->second;
            if (p.runtime) {
              reducible = false;
              continue;
            }
            if (p.iset.is_universal()) {
              // Universal statements (replicated scalar bookkeeping or
              // whole-machine calls) force full execution of the loop.
              reducible = false;
              continue;
            }
            if (!p.bcast_scalars.empty()) {
              // Bounds reduction would separate the defining guard from
              // its broadcast; a whole-loop guard keeps both legal (only
              // the owner executes the body, and the broadcast moves
              // after the loop).
              bcast_blocks_reduce = true;
            }
            if (!p.reduction_scalar.empty() &&
                std::find(reductions.begin(), reductions.end(),
                          p.reduction_scalar) == reductions.end())
              reductions.push_back(p.reduction_scalar);
            if (!unified)
              unified = p.iset.constraint;
            else if (!(*unified == p.iset.constraint))
              reducible = false;
            for (const auto& sc : p.bcast_scalars) bcast_scalars.push_back(sc);
            continue;
          }
          if (s->kind == StmtKind::Distribute) reducible = false;
          scan(s->then_body);
          scan(s->else_body);
          scan(s->body);
        }
      };
  scan(loop.body);

  if (reducible && unified) {
    // Is the constraint invariant of this loop (neither its variable nor
    // any variable of its fixed form is the loop variable, and the
    // variable is not assigned in the body)?
    auto invariant_here = [&] {
      if (unified->uses_var()) {
        if (unified->var == loop.loop_var) return false;
        bool assigned = false;
        walk_stmts(loop.body, [&](const Stmt& t) {
          if (t.kind == StmtKind::Assign && t.lhs->kind == ExprKind::VarRef &&
              t.lhs->name == unified->var)
            assigned = true;
          if (t.kind == StmtKind::Do && t.loop_var == unified->var)
            assigned = true;
        });
        return !assigned;
      }
      return unified->fixed.coeff(loop.loop_var) == 0;
    };
    if (unified->uses_var() && unified->var == loop.loop_var) {
      if (!bcast_blocks_reduce) {
        lp.decision = LoopDecision::Reduce;
        lp.constraint = *unified;
        lp.reductions = reductions;
      }
    } else if (invariant_here()) {
      // One guard around the whole loop instead of one per iteration.
      lp.decision = LoopDecision::GuardWhole;
      lp.constraint = *unified;
      lp.bcast_scalars = bcast_scalars;
    }
  }
  loop_plans_[&loop] = std::move(lp);
}

bool ProcGen::event_would_export(const CommEvent& ev) const {
  if (cg_.options_.strategy != Strategy::Interprocedural) return false;
  if (proc_.is_program) return false;
  if (ev.kind == CommEvent::Kind::ScalarBcast) return false;
  // Variables remaining after widening over all local loops.
  std::vector<std::string> vars = sym_section_vars(ev.section);
  for (const auto& v : ev.root_index.vars()) vars.push_back(v);
  // Fixpoint: local loop vars resolve to their bound variables.
  for (int iter = 0; iter < 8; ++iter) {
    bool changed = false;
    std::vector<std::string> next;
    for (const auto& v : vars) {
      const Stmt* loop = nullptr;
      walk_stmts(proc_.body, [&](const Stmt& s) {
        if (s.kind == StmtKind::Do && s.loop_var == v) loop = &s;
      });
      if (!loop) {
        next.push_back(v);
        continue;
      }
      changed = true;
      for (const Expr* b : {loop->lb.get(), loop->ub.get()}) {
        auto f = extract_affine(*b, env_.consts);
        if (f)
          for (const auto& bv : f->vars()) next.push_back(bv);
      }
    }
    vars = std::move(next);
    if (!changed) break;
  }
  for (const auto& v : vars)
    if (proc_.is_formal(v)) return true;
  return false;
}

void ProcGen::decide_export() {
  // Candidate: a single constraint shared by all effectful statements, on
  // a formal variable, with no locally instantiated communication.
  if (cg_.options_.strategy != Strategy::Interprocedural || proc_.is_program)
    return;
  std::optional<OwnershipConstraint> unified;
  for (const auto& [stmt, plan] : plans_) {
    if (plan.runtime) return;  // runtime statements contain comm
    if (!plan.reduction_scalar.empty()) return;  // AllReduce is local comm
    if (!plan.bcast_scalars.empty()) local_comm_expected_ = true;
    for (const auto& ev : plan.events)
      if (!event_would_export(ev)) local_comm_expected_ = true;
    if (plan.iset.is_universal()) {
      // Scalar bookkeeping is harmless under a caller-side guard only when
      // the scalar cannot escape the procedure.
      bool harmless = stmt->kind == StmtKind::Assign &&
                      stmt->lhs->kind == ExprKind::VarRef && plan.events.empty();
      if (harmless) {
        const Symbol* sym = st_.lookup(stmt->lhs->name);
        if (sym && (sym->formal_index >= 0 || sym->is_global()))
          harmless = false;
      }
      if (!harmless) return;
      continue;
    }
    if (!unified)
      unified = plan.iset.constraint;
    else if (!(*unified == plan.iset.constraint))
      return;
  }
  if (!unified || local_comm_expected_) return;
  // The constraint must be expressible by the caller: variable and array
  // must be formals or globals.
  const Symbol* arr = st_.lookup(unified->array);
  if (!arr || (arr->formal_index < 0 && !arr->is_global())) return;
  if (unified->uses_var()) {
    // A local loop variable will be consumed by bounds reduction here.
    bool is_local_loop = false;
    walk_stmts(proc_.body, [&](const Stmt& s) {
      if (s.kind == StmtKind::Do && s.loop_var == unified->var)
        is_local_loop = true;
    });
    if (is_local_loop) return;
    const Symbol* v = st_.lookup(unified->var);
    if (!v || (v->formal_index < 0 && !v->is_global())) return;
  } else {
    for (const auto& v : unified->fixed.vars()) {
      const Symbol* sym = st_.lookup(v);
      if (!sym || (sym->formal_index < 0 && !sym->is_global())) return;
    }
  }
  export_constraint_ = unified;
}

void ProcGen::analyze() {
  analyze_list(proc_.body);
  refine_scalar_bcasts();
  walk_stmts(proc_.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::Do) decide_loop(s);
  });
  decide_export();
}

// ---------------------------------------------------------------------------
// Generation helpers
// ---------------------------------------------------------------------------

DimDistribution ProcGen::constraint_dim(const OwnershipConstraint& c) const {
  const Symbol* sym = st_.lookup(c.array);
  assert(sym && sym->is_array());
  auto spec = spec_at(nullptr, c.array);
  // spec_at(nullptr) misses; derive from any statement: use unique spec.
  auto uniq = cg_.ipa_.reaching.unique_spec(proc_.name, c.array);
  DecompSpec s = uniq ? *uniq : DecompSpec{};
  if (spec) s = *spec;
  ArrayDistribution ad(c.array, s, sym->dims, nprocs_);
  return ad.dim(c.dim);
}

ExprPtr ProcGen::owner_cond(const OwnershipConstraint& c) const {
  using namespace build;
  AffineForm idx = c.fixed;
  if (c.uses_var()) {
    idx = AffineForm{};
    idx.coeffs[c.var] = 1;
    idx.konst = c.offset;
  }
  DimDistribution dd = constraint_dim(c);
  return cmp(BinOp::Eq, myp(), dd.owner_expr(form_to_expr(idx)));
}

StmtPtr ProcGen::guarded(const OwnershipConstraint& c,
                         std::vector<StmtPtr> body) {
  ++stats_.guards_inserted;
  return Stmt::make_if(owner_cond(c), std::move(body));
}

void ProcGen::emit_scalar_bcasts(const OwnershipConstraint& c,
                                 const std::vector<std::string>& scalars,
                                 GenOut& out, SourceLoc loc) {
  AffineForm idx = c.fixed;
  if (c.uses_var()) {
    idx = AffineForm{};
    idx.coeffs[c.var] = 1;
    idx.konst = c.offset;
  }
  DimDistribution dd = constraint_dim(c);
  for (const auto& s : scalars) {
    StmtPtr b = Stmt::make_broadcast(s, {}, dd.owner_expr(form_to_expr(idx)));
    stamp_loc(*b, loc);
    out.emit(std::move(b), seq_);
    ++stats_.scalar_broadcasts;
    emitted_comm_ = true;
  }
}

bool ProcGen::constraint_consumed(const OwnershipConstraint& c) const {
  if (export_constraint_ && *export_constraint_ == c) return true;
  for (const auto& r : active_reductions_)
    if (r == c) return true;
  return false;
}

StmtPtr ProcGen::reduce_loop_bounds(const Stmt& loop,
                                    const OwnershipConstraint& c,
                                    std::vector<StmtPtr> body, LoopCtx& lctx) {
  using namespace build;
  ++stats_.loops_bounds_reduced;
  DimDistribution dd = constraint_dim(c);
  ExprPtr lb = loop.lb->clone();
  ExprPtr ub = loop.ub->clone();
  ExprPtr step = loop.step ? loop.step->clone() : nullptr;
  switch (dd.kind()) {
    case DistKind::Block: {
      // v in [local_lb - offset, local_ub - offset] ∩ [lb, ub].
      lb = simplify(fmax(std::move(lb), sub(dd.local_lb_expr(), num(c.offset))));
      ub = simplify(fmin(std::move(ub), sub(dd.local_ub_expr(), num(c.offset))));
      break;
    }
    case DistKind::Cyclic: {
      // First v >= lb with owner(v + offset) == my$p, stride P.
      // owner(i) = (i - glb) mod P; v + offset = glb + my$p (mod P).
      ExprPtr first = simplify(add(
          lb->clone(),
          modp(sub(add(myp(), num(dd.glb() - c.offset)), lb->clone()),
               num(nprocs_))));
      lb = std::move(first);
      step = num(nprocs_);
      break;
    }
    default:
      // BLOCK_CYCLIC loops are not reduced (callers fall back earlier).
      break;
  }
  (void)lctx;
  return Stmt::make_do(loop.loop_var, std::move(lb), std::move(ub),
                       std::move(step), std::move(body));
}

std::vector<StmtPtr> ProcGen::instantiate_event(const CommEvent& ev) {
  using namespace build;
  std::vector<StmtPtr> out;
  emitted_comm_ = true;
  if (ev.hoisted_loops > 0) ++stats_.vectorized_messages;

  if (ev.kind == CommEvent::Kind::ScalarBcast) {
    // Handled by emit_scalar_bcasts; not expected here.
    return out;
  }

  const Symbol* sym = st_.lookup(ev.array);
  std::vector<std::pair<int64_t, int64_t>> bounds =
      sym && sym->dims_const ? sym->dims : ev.bounds;
  ArrayDistribution ad(ev.array, ev.spec, bounds, nprocs_);
  DimDistribution dd = ad.dim(ev.dist_dim);

  auto render_section = [&](bool send_side) {
    std::vector<SectionExpr> sec;
    for (size_t d = 0; d < ev.section.size(); ++d) {
      if (static_cast<int>(d) == ev.dist_dim &&
          ev.kind == CommEvent::Kind::Shift) {
        SectionExpr t;
        int64_t s = ev.shift;
        // Bounds are clamped to the declared range: processors whose
        // block is short or empty (P not dividing N) compute empty
        // sections, and empty sends/receives are skipped symmetrically
        // by the machine.
        if (s > 0) {
          if (send_side) {
            // My first s elements go to my left neighbor.
            t.lb = dd.local_lb_expr();
            t.ub = simplify(
                fmin(add(dd.local_lb_expr(), num(s - 1)), num(dd.gub())));
          } else {
            // I receive my right neighbor's first s elements.
            t.lb = simplify(add(dd.local_ub_expr(), num(1)));
            t.ub = simplify(
                fmin(add(dd.local_ub_expr(), num(s)), num(dd.gub())));
          }
        } else {
          int64_t a = -s;
          if (send_side) {
            t.lb = simplify(
                fmax(sub(dd.local_ub_expr(), num(a - 1)), num(dd.glb())));
            t.ub = dd.local_ub_expr();
          } else {
            t.lb = simplify(
                fmax(sub(dd.local_lb_expr(), num(a)), num(dd.glb())));
            t.ub = simplify(sub(dd.local_lb_expr(), num(1)));
          }
        }
        sec.push_back(std::move(t));
      } else {
        sec.push_back(triplet_to_section(ev.section[d]));
      }
    }
    return sec;
  };

  switch (ev.kind) {
    case CommEvent::Kind::Shift: {
      const int last = nprocs_ - 1;
      if (ev.shift > 0) {
        // Data flows right-to-left: p sends its low edge to p-1.
        std::vector<StmtPtr> send;
        send.push_back(Stmt::make_send(ev.array, render_section(true),
                                       sub(myp(), num(1))));
        out.push_back(Stmt::make_if(cmp(BinOp::Gt, myp(), num(0)),
                                    std::move(send)));
        std::vector<StmtPtr> recv;
        recv.push_back(Stmt::make_recv(ev.array, render_section(false),
                                       add(myp(), num(1))));
        out.push_back(Stmt::make_if(cmp(BinOp::Lt, myp(), num(last)),
                                    std::move(recv)));
      } else {
        // Data flows left-to-right: p sends its high edge to p+1.
        std::vector<StmtPtr> send;
        send.push_back(Stmt::make_send(ev.array, render_section(true),
                                       add(myp(), num(1))));
        out.push_back(Stmt::make_if(cmp(BinOp::Lt, myp(), num(last)),
                                    std::move(send)));
        std::vector<StmtPtr> recv;
        recv.push_back(Stmt::make_recv(ev.array, render_section(false),
                                       sub(myp(), num(1))));
        out.push_back(Stmt::make_if(cmp(BinOp::Gt, myp(), num(0)),
                                    std::move(recv)));
      }
      break;
    }
    case CommEvent::Kind::Bcast: {
      out.push_back(Stmt::make_broadcast(ev.array, render_section(false),
                                         dd.owner_expr(form_to_expr(ev.root_index))));
      break;
    }
    default:
      break;
  }
  stamp_locs(out, ev.loc);
  return out;
}

void ProcGen::emit_runtime(const Stmt& s, const Stmt* ctx_stmt, GenOut& out) {
  emitted_comm_ = true;
  auto is_dist = [&](const std::string& name) {
    const Symbol* sym = st_.lookup(name);
    if (!sym || !sym->is_array()) return false;
    auto specs = cg_.ipa_.reaching.specs_at(proc_.name, ctx_stmt, name);
    for (const auto& spec : specs)
      if (!spec.is_top && spec.distributed_dims() > 0) return true;
    // Under forced run-time resolution the registry decides dynamically;
    // treat arrays with any distribution anywhere as distributed.
    if (forced_runtime()) {
      auto all = cg_.ipa_.reaching.specs_for(proc_.name, name);
      for (const auto& spec : all)
        if (spec.distributed_dims() > 0) return true;
      // An inherited ⊤ under run-time fallback may be distributed.
      for (const auto& spec : specs)
        if (spec.is_top) return true;
    }
    return false;
  };
  emit_runtime_resolved_assign(s, st_, is_dist, out.stmts, stats_);
  // Record the write for dependence checks at outer levels.
  if (s.lhs->kind == ExprKind::ArrayRef) {
    SymSection sec;
    bool ok = true;
    for (const auto& sub : s.lhs->args) {
      auto f = extract_affine(*sub, env_.consts);
      if (!f) {
        ok = false;
        break;
      }
      sec.push_back(SymTriplet::single(*f));
    }
    if (ok) out.writes.push_back({s.lhs->name, std::move(sec), seq_});
  }
  ++seq_;
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

void ProcGen::insert_blocked(GenOut& block, const FloatingEvent& f,
                             const LoopCtx& lctx) {
  // Loop-independent true dependences: writes earlier in this block that
  // may produce the very data the message carries force the message after
  // them (e.g. the pivot column must be scaled before it is broadcast).
  int threshold = -1;
  for (const auto& w : block.writes) {
    if (w.seq >= f.origin_seq || w.array != f.ev.array) continue;
    if (blocks_hoist(w.sec, f.ev.section, lctx, "", /*write_first=*/true))
      threshold = std::max(threshold, w.seq);
  }
  size_t idx = 0;
  while (idx < block.stmts.size() && block.seqs[idx] <= threshold) ++idx;
  auto stmts = instantiate_event(f.ev);
  for (size_t k = 0; k < stmts.size(); ++k) {
    block.stmts.insert(block.stmts.begin() + static_cast<long>(idx + k),
                       std::move(stmts[k]));
    block.seqs.insert(block.seqs.begin() + static_cast<long>(idx + k),
                      threshold);
  }
}

void ProcGen::float_events(const StmtPlan& plan, GenOut& out) {
  for (const auto& ev : plan.events) {
    if (ev.kind == CommEvent::Kind::Shift) {
      auto& demand = shift_demand_[ev.array];
      if (ev.shift > 0)
        demand.second = std::max(demand.second, ev.shift);
      else
        demand.first = std::max(demand.first, -ev.shift);
    }
    // Coalesce identical in-flight messages (Fig. 11 "aggregate RSDs for
    // messages to the same processor").
    bool dup = false;
    for (const auto& f : out.floats)
      if (f.ev.same_message(ev)) {
        dup = true;
        break;
      }
    if (!dup) out.floats.push_back({ev, seq_});
  }
}

void ProcGen::gen_assign(const Stmt& s, GenOut& out, LoopCtx& lctx) {
  (void)lctx;
  const StmtPlan& plan = plans_.at(&s);
  if (plan.runtime) {
    emit_runtime(s, &s, out);
    return;
  }
  if (!plan.reduction_scalar.empty()) {
    if (!constraint_consumed(plan.iset.constraint)) {
      // The enclosing loop was not reduced (mixed statements): fall back.
      emit_runtime(s, &s, out);
      return;
    }
    // Accumulate into the per-processor partial: red$s = red$s + g.
    const std::string temp = "red$" + plan.reduction_scalar;
    reduction_temps_.insert(temp);
    const Expr* g = s.rhs->args[0]->kind == ExprKind::VarRef &&
                            s.rhs->args[0]->name == plan.reduction_scalar
                        ? s.rhs->args[1].get()
                        : s.rhs->args[0].get();
    out.emit(Stmt::make_assign(
                 Expr::make_var(temp),
                 Expr::make_binary(BinOp::Add, Expr::make_var(temp),
                                   g->clone())),
             seq_);
    ++seq_;
    return;
  }
  float_events(plan, out);

  StmtPtr body = Stmt::make_assign(s.lhs->clone(), s.rhs->clone(), s.loc);
  bool need_guard = plan.iset.is_constrained() &&
                    !constraint_consumed(plan.iset.constraint);
  if (need_guard) {
    std::vector<StmtPtr> inner;
    inner.push_back(std::move(body));
    out.emit(guarded(plan.iset.constraint, std::move(inner)), seq_);
    emit_scalar_bcasts(plan.iset.constraint, plan.bcast_scalars, out, s.loc);
  } else {
    // Constraint consumed by an enclosing Reduce/GuardWhole (whose level
    // emits any scalar broadcasts) — emit the bare statement.
    out.emit(std::move(body), seq_);
  }

  // Record the write (symbolic section) for hoisting checks.
  if (s.lhs->kind == ExprKind::ArrayRef) {
    SymSection sec;
    bool ok = true;
    for (const auto& sub : s.lhs->args) {
      auto f = extract_affine(*sub, env_.consts);
      if (!f) {
        ok = false;
        break;
      }
      sec.push_back(SymTriplet::single(*f));
    }
    if (ok)
      out.writes.push_back({s.lhs->name, std::move(sec), seq_});
    else
      out.writes.push_back(
          {s.lhs->name,
           SymSection(s.lhs->args.size(), SymTriplet::constant(1, 1 << 20)),
           seq_});
  }
  ++seq_;
}

void ProcGen::gen_call(const Stmt& s, GenOut& out, LoopCtx& lctx) {
  const StmtPlan& plan = plans_.at(&s);
  const CallSiteInfo* site = cg_.ipa_.acg.site_for(&s);
  const Procedure* callee = site ? cg_.program_.find(s.callee) : nullptr;

  // Dynamic data decomposition: instantiate the callee's delayed remaps
  // around the call (they are optimized by the Fig. 16/17 passes later).
  const ProcExports* ex = nullptr;
  if (callee) {
    auto it = cg_.exports_.find(s.callee);
    if (it != cg_.exports_.end()) ex = &it->second;
  }
  if (ex && callee) {
    for (const auto& [spec, var] : ex->decomp_before) {
      auto t = translate_to_caller(var, *callee, *site);
      if (!t) continue;
      auto cur = spec_at(&s, *t);
      auto remap = std::make_unique<Stmt>();
      remap->kind = StmtKind::Remap;
      remap->loc = s.loc;
      remap->dist_target = *t;
      remap->dist_specs = spec.dists;
      if (cur) remap->from_specs = cur->dists;
      out.emit(std::move(remap), seq_);
      ++stats_.remaps_inserted;
    }
  }

  // Pending communication from the callee: translate and float. The
  // event's own source position (the callee reference) is kept; events
  // that lost it fall back to the call site.
  if (ex && callee) {
    for (const CommEvent& pending : ex->pending_comms) {
      CommEvent ev = pending;
      if (!ev.loc.valid()) ev.loc = s.loc;
      // Array name.
      int ai = callee->formal_index(ev.array);
      if (ai >= 0) {
        if (ai >= static_cast<int>(site->actuals.size()) ||
            site->actuals[static_cast<size_t>(ai)]->kind != ExprKind::VarRef)
          continue;  // cannot translate: drop (callee guarded internally)
        ev.array = site->actuals[static_cast<size_t>(ai)]->name;
      }
      const Symbol* sym = st_.lookup(ev.array);
      if (sym && sym->dims_const) ev.bounds = sym->dims;
      // Section / root forms.
      bool ok = true;
      SymSection sec;
      for (const auto& t : ev.section) {
        auto lb = translate_form(t.lb, *callee, *site);
        auto ub = translate_form(t.ub, *callee, *site);
        if (!lb || !ub) {
          ok = false;
          break;
        }
        sec.push_back({*lb, *ub, t.step});
      }
      auto root = translate_form(ev.root_index, *callee, *site);
      if (!ok || !root) continue;
      ev.section = std::move(sec);
      ev.root_index = *root;
      if (ev.kind == CommEvent::Kind::Shift) {
        auto& demand = shift_demand_[ev.array];
        if (ev.shift > 0)
          demand.second = std::max(demand.second, ev.shift);
        else
          demand.first = std::max(demand.first, -ev.shift);
      }
      ++stats_.delayed_comms_absorbed;
      bool dup = false;
      for (const auto& f : out.floats)
        if (f.ev.same_message(ev)) dup = true;
      if (!dup) out.floats.push_back({std::move(ev), seq_});
    }
  }

  StmtPtr call = Stmt::make_call(s.callee, {}, s.loc);
  for (const auto& a : s.call_args) call->call_args.push_back(a->clone());

  bool need_guard = plan.iset.is_constrained() &&
                    !constraint_consumed(plan.iset.constraint) && ex &&
                    !ex->contains_comm;
  if (plan.runtime) {
    // Could not translate the callee's constraint: execute universally.
    need_guard = false;
  }
  if (need_guard) {
    std::vector<StmtPtr> inner;
    inner.push_back(std::move(call));
    out.emit(guarded(plan.iset.constraint, std::move(inner)), seq_);
    // Scalars the callee modifies must be re-broadcast.
    std::vector<std::string> scalars;
    if (ex && callee)
      for (const auto& sc : ex->scalar_mods) {
        auto t = translate_to_caller(sc, *callee, *site);
        if (t) {
          const Symbol* sym = st_.lookup(*t);
          if (sym && !sym->is_array()) scalars.push_back(*t);
        }
      }
    emit_scalar_bcasts(plan.iset.constraint, scalars, out, s.loc);
  } else {
    out.emit(std::move(call), seq_);
  }

  // Callee writes, translated, for dependence checks.
  if (ex && callee) {
    for (const auto& [arr, secs] : ex->sym_defs) {
      std::string name = arr;
      int ai = callee->formal_index(arr);
      if (ai >= 0) {
        if (ai >= static_cast<int>(site->actuals.size()) ||
            site->actuals[static_cast<size_t>(ai)]->kind != ExprKind::VarRef)
          continue;
        name = site->actuals[static_cast<size_t>(ai)]->name;
      }
      for (const auto& sec : secs) {
        SymSection tsec;
        bool ok = true;
        for (const auto& t : sec) {
          auto lb = translate_form(t.lb, *callee, *site);
          auto ub = translate_form(t.ub, *callee, *site);
          if (!lb || !ub) {
            ok = false;
            break;
          }
          tsec.push_back({*lb, *ub, t.step});
        }
        if (ok)
          out.writes.push_back({name, std::move(tsec), seq_});
        else
          out.writes.push_back(
              {name, SymSection(sec.size(), SymTriplet::constant(1, 1 << 20)),
               seq_});
      }
    }
  }

  // Restore remaps after the call.
  if (ex && callee) {
    for (const auto& [spec, var] : ex->decomp_after) {
      auto t = translate_to_caller(var, *callee, *site);
      if (!t) continue;
      auto remap = std::make_unique<Stmt>();
      remap->kind = StmtKind::Remap;
      remap->loc = s.loc;
      remap->dist_target = *t;
      remap->dist_specs = spec.dists;
      // The "from" is whatever the callee left it as (its before-spec).
      for (const auto& [bspec, bvar] : ex->decomp_before)
        if (bvar == var) remap->from_specs = bspec.dists;
      out.emit(std::move(remap), seq_);
      ++stats_.remaps_inserted;
    }
  }
  (void)lctx;
  ++seq_;
}

void ProcGen::settle_floats_at_loop(const Stmt& loop, GenOut& body,
                                    LoopCtx& lctx, GenOut& out) {
  auto lbf = extract_affine(*loop.lb, env_.consts);
  auto ubf = extract_affine(*loop.ub, env_.consts);
  int64_t lstep = 1;
  if (loop.step) {
    auto sv = eval_int(*loop.step, env_);
    if (sv && *sv > 0) lstep = *sv;
  }

  std::vector<StmtPtr> at_loop_top;
  std::vector<FloatingEvent> still_floating;

  for (auto& f : body.floats) {
    CommEvent& ev = f.ev;
    // (1) Dependence check against writes inside the loop body.
    bool blocked = false;
    for (const auto& w : body.writes) {
      if (w.array != ev.array) continue;
      if (blocks_hoist(w.sec, ev.section, lctx, loop.loop_var,
                       w.seq < f.origin_seq)) {
        blocked = true;
        break;
      }
    }
    // (2) A broadcast whose root varies with the loop cannot be hoisted.
    if (!blocked && ev.root_index.coeff(loop.loop_var) != 0) blocked = true;

    // (3) Widen the section over the loop (message vectorization).
    if (!blocked && lbf && ubf) {
      SymSection widened;
      bool ok = true;
      for (const auto& t : ev.section) {
        auto w = widen_over_loop(t, loop.loop_var, *lbf, *ubf, lstep);
        if (!w) {
          ok = false;
          break;
        }
        widened.push_back(*w);
      }
      if (ok) {
        ev.section = std::move(widened);
        ++ev.hoisted_loops;
        still_floating.push_back(std::move(f));
        continue;
      }
      blocked = true;
    } else if (!blocked) {
      blocked = true;  // non-affine loop bounds: cannot widen
    }

    if (blocked) {
      // Instantiating communication inside a loop whose execution is
      // restricted to owners would deadlock (non-owners skip the matching
      // send/recv/broadcast).
      const LoopPlan& lp = loop_plans_.at(&loop);
      if (lp.decision != LoopDecision::None)
        throw CompileError(
            {}, "communication for " + ev.str() + " in '" + proc_.name +
                    "' is blocked inside an owner-restricted loop; this "
                    "pattern requires pipelining (use run-time resolution)");
      insert_blocked(body, f, lctx);
    }
  }
  body.floats.clear();
  (void)at_loop_top;
  for (auto& f : still_floating) out.floats.push_back(std::move(f));
}

void ProcGen::hoist_writes_over_loop(const Stmt& loop, GenOut& body,
                                     LoopCtx& lctx, GenOut& out) {
  auto lbf = extract_affine(*loop.lb, env_.consts);
  auto ubf = extract_affine(*loop.ub, env_.consts);
  for (auto& w : body.writes) {
    SymSection widened;
    bool ok = lbf && ubf;
    if (ok) {
      for (const auto& t : w.sec) {
        auto wt = widen_over_loop(t, loop.loop_var, *lbf, *ubf, 1);
        if (!wt) {
          ok = false;
          break;
        }
        widened.push_back(*wt);
      }
    }
    if (ok)
      out.writes.push_back({w.array, std::move(widened), w.seq});
    else
      out.writes.push_back(
          {w.array, SymSection(w.sec.size(), SymTriplet::constant(1, 1 << 20)),
           w.seq});
  }
  (void)lctx;
}

void ProcGen::gen_do(const Stmt& s, GenOut& out, LoopCtx& lctx) {
  const LoopPlan& lp = loop_plans_.at(&s);
  // The loop's emission sequence is its *start*: a blocked message whose
  // dependence threshold lies inside the body must be placed after the
  // whole loop.
  const int start_seq = seq_;

  auto lbf = extract_affine(*s.lb, env_.consts);
  auto ubf = extract_affine(*s.ub, env_.consts);
  int64_t lstep = 1;
  if (s.step) {
    auto sv = eval_int(*s.step, env_);
    if (sv && *sv > 0) lstep = *sv;
  }
  lctx.push_back({s.loop_var, lbf ? *lbf : AffineForm{}, ubf ? *ubf : AffineForm{},
                  lstep});
  auto lb = eval_int(*s.lb, env_);
  auto ub = eval_int(*s.ub, env_);
  bool pushed_range = false;
  if (lb && ub && lstep > 0) {
    env_.ranges[s.loop_var] = Triplet(*lb, *ub, lstep);
    pushed_range = true;
  }

  // A GuardWhole whose constraint an outer level already consumed (outer
  // reduction or the procedure's exported iteration set) degrades to None.
  LoopDecision decision = lp.decision;
  if (decision == LoopDecision::GuardWhole &&
      constraint_consumed(lp.constraint))
    decision = LoopDecision::None;

  // Reduce and GuardWhole both make per-statement guards inside the body
  // redundant (the constraint is enforced at this level).
  const bool consumed_here = decision == LoopDecision::Reduce ||
                             decision == LoopDecision::GuardWhole;
  if (consumed_here) active_reductions_.push_back(lp.constraint);

  GenOut body = gen_block(s.body, lctx);

  if (consumed_here) active_reductions_.pop_back();
  if (pushed_range) env_.ranges.erase(s.loop_var);

  // Communication placement at this loop boundary.
  settle_floats_at_loop(s, body, lctx, out);
  hoist_writes_over_loop(s, body, lctx, out);
  lctx.pop_back();

  switch (decision) {
    case LoopDecision::Reduce: {
      for (const std::string& scalar : lp.reductions) {
        out.emit(Stmt::make_assign(Expr::make_var("red$" + scalar),
                                   Expr::make_real(0.0)),
                 start_seq);
      }
      out.emit(reduce_loop_bounds(s, lp.constraint, std::move(body.stmts), lctx),
               start_seq);
      for (const std::string& scalar : lp.reductions) {
        auto red = std::make_unique<Stmt>();
        red->kind = StmtKind::AllReduce;
        red->loc = s.loc;
        red->msg_array = "red$" + scalar;
        red->reduce_op = "sum";
        out.emit(std::move(red), seq_);
        out.emit(Stmt::make_assign(
                     Expr::make_var(scalar),
                     Expr::make_binary(BinOp::Add, Expr::make_var(scalar),
                                       Expr::make_var("red$" + scalar))),
                 seq_);
        emitted_comm_ = true;
        ++stats_.scalar_broadcasts;
      }
      break;
    }
    case LoopDecision::GuardWhole: {
      StmtPtr loop = Stmt::make_do(s.loop_var, s.lb->clone(), s.ub->clone(),
                                   s.step ? s.step->clone() : nullptr,
                                   std::move(body.stmts), s.loc);
      std::vector<StmtPtr> inner;
      inner.push_back(std::move(loop));
      out.emit(guarded(lp.constraint, std::move(inner)), start_seq);
      emit_scalar_bcasts(lp.constraint, lp.bcast_scalars, out, s.loc);
      break;
    }
    case LoopDecision::None: {
      out.emit(Stmt::make_do(s.loop_var, s.lb->clone(), s.ub->clone(),
                             s.step ? s.step->clone() : nullptr,
                             std::move(body.stmts), s.loc),
               start_seq);
      break;
    }
  }
  ++seq_;
}

void ProcGen::gen_if(const Stmt& s, GenOut& out, LoopCtx& lctx) {
  auto pit = plans_.find(&s);
  if (pit != plans_.end()) {
    // Owner region: guard the whole IF.
    const StmtPlan& plan = pit->second;
    StmtPtr body = s.clone();
    body->id = -1;
    if (plan.iset.is_constrained() &&
        !constraint_consumed(plan.iset.constraint)) {
      std::vector<StmtPtr> inner;
      inner.push_back(std::move(body));
      out.emit(guarded(plan.iset.constraint, std::move(inner)), seq_);
      emit_scalar_bcasts(plan.iset.constraint, plan.bcast_scalars, out, s.loc);
    } else {
      out.emit(std::move(body), seq_);
    }
    ++seq_;
    return;
  }
  // Plain IF: lower both branches.
  const int start_seq = seq_;
  // Under run-time resolution a condition reading distributed data must
  // first fetch those elements from their owners (every processor
  // evaluates the branch predicate).
  if (forced_runtime()) {
    std::vector<const Expr*> dist_refs;
    walk_expr(*s.cond, [&](const Expr& e) {
      if (e.kind == ExprKind::ArrayRef && may_be_distributed(&s, e.name))
        dist_refs.push_back(&e);
    });
    for (const Expr* r : dist_refs) {
      std::vector<SectionExpr> sec;
      for (const auto& sub : r->args) {
        SectionExpr t;
        t.lb = sub->clone();
        t.ub = sub->clone();
        sec.push_back(std::move(t));
      }
      std::vector<ExprPtr> subs;
      for (const auto& sub : r->args) subs.push_back(sub->clone());
      StmtPtr b = Stmt::make_broadcast(r->name, std::move(sec),
                                       owner_intrinsic(r->name, subs));
      stamp_loc(*b, r->loc.valid() ? r->loc : s.loc);
      out.emit(std::move(b), seq_);
      emitted_comm_ = true;
    }
  }
  GenOut then_out = gen_block(s.then_body, lctx);
  GenOut else_out = gen_block(s.else_body, lctx);
  // Events inside conditional branches instantiate in place (hoisting a
  // message above a branch could deadlock when the condition differs
  // across processors).
  for (auto& f : then_out.floats) insert_blocked(then_out, f, lctx);
  then_out.floats.clear();
  for (auto& f : else_out.floats) insert_blocked(else_out, f, lctx);
  else_out.floats.clear();
  for (auto& w : then_out.writes) out.writes.push_back(std::move(w));
  for (auto& w : else_out.writes) out.writes.push_back(std::move(w));
  out.emit(Stmt::make_if(s.cond->clone(), std::move(then_out.stmts),
                         std::move(else_out.stmts), s.loc),
           start_seq);
  ++seq_;
}

void ProcGen::gen_distribute(const Stmt& s, GenOut& out, LoopCtx& lctx) {
  // Executable DISTRIBUTE: under run-time resolution it survives as a
  // registry update; under compiled strategies the prologue distribution
  // is static (consumed by analysis) and *dynamic* redistribution becomes
  // an explicit Remap (delayed to the caller where legal — handled in
  // run(); here we emit the local form for the cases that stay local).
  if (cg_.options_.strategy == Strategy::RuntimeResolution) {
    // Emit one registry update per affected array with resolved specs.
    const ProcSummary& sum = cg_.ipa_.summaries.at(proc_.name);
    for (const std::string& arr :
         affected_arrays(s, proc_, st_, sum.align)) {
      const Symbol* sym = st_.lookup(arr);
      if (!sym) continue;
      auto spec = spec_for_array(s, arr, sym->rank(), sum.align);
      if (!spec) continue;
      auto d = std::make_unique<Stmt>();
      d->kind = StmtKind::Distribute;
      d->loc = s.loc;
      d->dist_target = arr;
      d->dist_specs = spec->dists;
      out.emit(std::move(d), seq_);
    }
    return;
  }
  // Compiled strategies: decide local-vs-delayed in run(); here nothing is
  // emitted — run() pre-computed which Distribute statements turn into
  // local remaps and stored them in local_remaps_.
  auto it = local_remaps_.find(&s);
  if (it == local_remaps_.end()) return;  // delayed to the caller
  for (const auto& r : it->second) {
    if (r->kind == StmtKind::Remap) ++stats_.remaps_inserted;
    out.emit(r->clone(), seq_);
  }
  (void)lctx;
}

GenOut ProcGen::gen_block(const std::vector<StmtPtr>& in, LoopCtx& lctx) {
  GenOut out;
  for (const auto& s : in) {
    switch (s->kind) {
      case StmtKind::Assign:
        gen_assign(*s, out, lctx);
        break;
      case StmtKind::Call:
        gen_call(*s, out, lctx);
        break;
      case StmtKind::Do: {
        GenOut sub;
        gen_do(*s, sub, lctx);
        for (size_t i = 0; i < sub.stmts.size(); ++i)
          out.emit(std::move(sub.stmts[i]), sub.seqs[i]);
        for (auto& f : sub.floats) {
          bool dup = false;
          for (const auto& g : out.floats)
            if (g.ev.same_message(f.ev)) dup = true;
          if (!dup) out.floats.push_back(std::move(f));
        }
        for (auto& w : sub.writes) out.writes.push_back(std::move(w));
        break;
      }
      case StmtKind::If:
        gen_if(*s, out, lctx);
        break;
      case StmtKind::Align:
        break;  // consumed by analysis
      case StmtKind::Distribute:
        gen_distribute(*s, out, lctx);
        break;
      case StmtKind::Return:
      case StmtKind::Continue: {
        out.emit(s->clone(), seq_);
        break;
      }
      default:
        out.emit(s->clone(), seq_);
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// run()
// ---------------------------------------------------------------------------

std::unique_ptr<Procedure> ProcGen::run(ProcExports& exports) {
  analyze();

  // Dynamic data decomposition (§6): classify each executable DISTRIBUTE.
  // A DISTRIBUTE before any use of the inherited decomposition delays to
  // the caller (DecompBefore); anything else instantiates a local Remap.
  // The inherited decomposition is restored on return (DecompAfter).
  const ProcSummary& sum = cg_.ipa_.summaries.at(proc_.name);
  bool delay_remaps = cg_.options_.strategy == Strategy::Interprocedural &&
                      !proc_.is_program;
  if (cg_.options_.strategy != Strategy::RuntimeResolution) {
    // Track textual order: uses seen before a DISTRIBUTE force local
    // instantiation.
    std::set<std::string> used;
    std::function<void(const std::vector<StmtPtr>&)> scan =
        [&](const std::vector<StmtPtr>& stmts) {
          for (const auto& s : stmts) {
            if (s->kind == StmtKind::Distribute) {
              for (const std::string& arr :
                   affected_arrays(*s, proc_, st_, sum.align)) {
                const Symbol* sym = st_.lookup(arr);
                if (!sym) continue;
                auto spec = spec_for_array(*s, arr, sym->rank(), sum.align);
                if (!spec) continue;
                bool is_prologue = !used.count(arr);
                bool inheritable =
                    sym->formal_index >= 0 || sym->is_global();
                if (proc_.is_program && !sum.has_dynamic_decomp) {
                  // Static prologue distribution of the main program: no
                  // data motion needed (arrays begin life distributed),
                  // but the run-time registry must still learn it so the
                  // owner$ intrinsic and result gathering work.
                  auto reg = std::make_unique<Stmt>();
                  reg->kind = StmtKind::Distribute;
                  reg->loc = s->loc;
                  reg->dist_target = arr;
                  reg->dist_specs = spec->dists;
                  local_remaps_[s.get()].push_back(std::move(reg));
                  continue;
                }
                auto remap = std::make_unique<Stmt>();
                remap->kind = StmtKind::Remap;
                remap->loc = s->loc;
                remap->dist_target = arr;
                remap->dist_specs = spec->dists;
                auto inherited =
                    cg_.ipa_.reaching.unique_spec(proc_.name, arr);
                if (delay_remaps && is_prologue && inheritable) {
                  exports.decomp_before.emplace_back(*spec, arr);
                  exports.decomp_kill.insert(arr);
                  if (inherited)
                    exports.decomp_after.emplace_back(*inherited, arr);
                  else {
                    DecompSpec none;
                    none.dists.assign(static_cast<size_t>(sym->rank()),
                                      DistSpec{});
                    exports.decomp_after.emplace_back(none, arr);
                  }
                } else {
                  auto cur = spec_at(s.get(), arr);
                  if (cur)
                    remap->from_specs = cur->dists;
                  else if (inherited)
                    remap->from_specs = inherited->dists;
                  local_remaps_[s.get()].push_back(std::move(remap));
                  if (inheritable) {
                    exports.decomp_kill.insert(arr);
                    if (inherited)
                      exports.decomp_after.emplace_back(*inherited, arr);
                  }
                }
              }
            }
            // Uses.
            for_each_expr(*s, [&](const Expr& e) {
              if (e.kind == ExprKind::ArrayRef || e.kind == ExprKind::VarRef)
                used.insert(e.name);
            });
            scan(s->then_body);
            scan(s->else_body);
            scan(s->body);
          }
        };
    scan(proc_.body);
  }

  // DecompUse: arrays referenced before any local redistribution.
  {
    std::set<std::string> redistributed;
    for (const auto& [spec, var] : exports.decomp_before)
      redistributed.insert(var);
    walk_stmts(proc_.body, [&](const Stmt& s) {
      for_each_expr(s, [&](const Expr& e) {
        if (e.kind != ExprKind::ArrayRef) return;
        const Symbol* sym = st_.lookup(e.name);
        if (!sym || (sym->formal_index < 0 && !sym->is_global())) return;
        if (!redistributed.count(e.name)) exports.decomp_use.insert(e.name);
      });
    });
  }

  // Generate the body.
  LoopCtx lctx;
  GenOut top = gen_block(proc_.body, lctx);

  // Remaining floats: export to callers, or instantiate in the top-level
  // body (after any writes they depend on).
  for (auto& f : top.floats) {
    if (event_would_export(f.ev)) {
      exports.pending_comms.push_back(f.ev);
      ++stats_.delayed_comms_exported;
    } else {
      insert_blocked(top, f, LoopCtx{});
    }
  }
  top.floats.clear();

  // Exported iteration set & consistency check.
  exports.iter_set = IterationSet::universal();
  if (export_constraint_ && !emitted_comm_) {
    exports.iter_set = IterationSet::constrained(*export_constraint_);
    ++stats_.delayed_iter_sets_exported;
  } else if (export_constraint_ && emitted_comm_) {
    // Estimated export was invalidated by locally instantiated comm: the
    // statements were generated unguarded assuming the caller would guard.
    // Regenerating with guards would be needed; for the supported
    // programs this does not occur.
    throw CompileError({}, "internal: delayed iteration set for '" +
                               proc_.name +
                               "' conflicts with local communication");
  }
  exports.contains_comm = emitted_comm_;
  exports.shift_demand = shift_demand_;

  // Exported write summaries (formal/global arrays only).
  for (auto& w : top.writes) {
    const Symbol* sym = st_.lookup(w.array);
    if (!sym || (sym->formal_index < 0 && !sym->is_global())) continue;
    auto& list = exports.sym_defs[w.array];
    bool dup = false;
    for (const auto& s : list)
      if (sym_section_str(s) == sym_section_str(w.sec)) dup = true;
    if (!dup) list.push_back(w.sec);
  }

  // Scalar side effects (formals/globals).
  {
    auto it = cg_.ipa_.effects.gmod.find(proc_.name);
    if (it != cg_.ipa_.effects.gmod.end())
      for (const auto& v : it->second) {
        const Symbol* sym = st_.lookup(v);
        if (sym && !sym->is_array() &&
            (sym->formal_index >= 0 || sym->is_global()))
          exports.scalar_mods.insert(v);
      }
  }

  // Assemble the output procedure.
  auto out = std::make_unique<Procedure>();
  out->name = proc_.name;
  out->is_program = proc_.is_program;
  out->formals = proc_.formals;
  for (const auto& d : proc_.decls)
    if (!d.is_decomposition) out->decls.push_back(d.clone());
  for (const std::string& temp : reduction_temps_) {
    VarDecl decl;
    decl.name = temp;
    decl.type = ElemType::Real;
    out->decls.push_back(std::move(decl));
  }
  for (const auto& p : proc_.params) out->params.push_back({p.name, p.value->clone()});
  out->commons = proc_.commons;
  if (proc_.is_program) {
    // my$p = myproc() prologue (Fig. 2).
    out->body.push_back(Stmt::make_assign(Expr::make_var("my$p"),
                                          Expr::make_call("myproc", {})));
  }
  for (auto& s : top.stmts) out->body.push_back(std::move(s));
  out->next_stmt_id = proc_.next_stmt_id;
  return out;
}

// ===========================================================================
// CodeGenerator
// ===========================================================================

/// One procedure's full contribution to the compiled program, produced
/// either by ProcGen or by a cache hit.
struct ProcOut {
  std::unique_ptr<Procedure> compiled;
  ProcExports exports;
  std::vector<ArrayStorageInfo> storage;
  CompileStats stats;
  uint64_t digest = 0;
  bool from_cache = false;
};

namespace {

void accumulate(CompileStats& into, const CompileStats& d) {
  into.vectorized_messages += d.vectorized_messages;
  into.delayed_comms_exported += d.delayed_comms_exported;
  into.delayed_comms_absorbed += d.delayed_comms_absorbed;
  into.delayed_iter_sets_exported += d.delayed_iter_sets_exported;
  into.loops_bounds_reduced += d.loops_bounds_reduced;
  into.guards_inserted += d.guards_inserted;
  into.scalar_broadcasts += d.scalar_broadcasts;
  into.runtime_resolved_stmts += d.runtime_resolved_stmts;
  into.remaps_inserted += d.remaps_inserted;
  into.buffers_used += d.buffers_used;
}

}  // namespace

CodeGenerator::CodeGenerator(const BoundProgram& program,
                             const IpaContext& ipa,
                             const CodegenOptions& options,
                             CompilationCache* cache,
                             const OverlapEstimates* overlaps,
                             ThreadPool* pool)
    : program_(program), ipa_(ipa), options_(options), cache_(cache),
      pool_(pool) {
  overlaps_ = overlaps ? *overlaps
                       : compute_overlap_estimates(program_, ipa_.acg,
                                                   ipa_.summaries);
}

SpmdProgram CodeGenerator::generate() {
  result_ = SpmdProgram{};
  result_.options = options_;
  result_.stats.clones_created = ipa_.clones_created;
  exports_.clear();
  last_generated_.clear();
  sched_stats_ = TaskGraphStats{};

  const auto& procs = program_.ast.procedures;
  std::vector<ProcOut> outs(procs.size());

  schedule(outs);

  // Merge per-procedure results. Counters accumulate in reverse
  // topological order (the serial emission order); the output AST is
  // assembled directly in topological (source) order, which the serial
  // walk used to reach with a post-hoc reverse.
  for (int idx : ipa_.acg.reverse_topological_indices()) {
    ProcOut& out = outs[static_cast<size_t>(idx)];
    accumulate(result_.stats, out.stats);
    result_.storage[procs[static_cast<size_t>(idx)]->name] =
        std::move(out.storage);
  }
  for (int idx : ipa_.acg.topological_indices())
    result_.ast.procedures.push_back(
        std::move(outs[static_cast<size_t>(idx)].compiled));

  // Dynamic data decomposition optimization (Fig. 16/17). Array-kill
  // summaries: arrays a procedure fully overwrites before any use.
  std::map<std::string, ArrayKillSummary> kills;
  for (const auto& proc : program_.ast.procedures) {
    const SymbolTable& st = program_.symtab(proc->name);
    auto dit = ipa_.effects.gdefs.find(proc->name);
    if (dit == ipa_.effects.gdefs.end()) continue;
    auto uit = ipa_.effects.guses.find(proc->name);
    for (const auto& [arr, defs] : dit->second) {
      const Symbol* sym = st.lookup(arr);
      if (!sym || !sym->is_array() || !sym->dims_const) continue;
      bool covers = false;
      for (const Rsd& r : defs.sections())
        if (r.contains(sym->full_section())) covers = true;
      bool used = uit != ipa_.effects.guses.end() && uit->second.count(arr) &&
                  !uit->second.at(arr).empty();
      if (covers && !used) {
        if (sym->formal_index >= 0)
          kills[proc->name].killed_formals.insert(sym->formal_index);
        else if (sym->is_global())
          kills[proc->name].killed_globals.insert(arr);
      }
    }
  }
  optimize_dynamic_decomps(result_, options_.dyn_decomp, kills);
  return std::move(result_);
}

/// The barrier-free schedule: the callees-first AcgTaskGraph run
/// work-stealing on the shared pool. A procedure's digest, cache probe
/// and generation start once its callees finish, when every callee export
/// its digest folds in is final. Everything order-sensitive —
/// last_generated_, cache inserts — is committed after the run in fixed
/// reverse topological order, so output and digest semantics are
/// byte-identical to the serial walk.
void CodeGenerator::schedule(std::vector<ProcOut>& outs) {
  const auto& procs = program_.ast.procedures;
  const int jobs = std::max(1, options_.jobs);
  ThreadPool* pool = jobs > 1 ? pool_ : nullptr;
  std::unique_ptr<ThreadPool> local;  // transient when none was borrowed
  if (jobs > 1 && !pool && procs.size() > 1) {
    local = std::make_unique<ThreadPool>(jobs - 1);
    pool = local.get();
  }

  AcgTaskGraph tg = ipa_.acg.task_graph(/*callees_first=*/true);
  const std::vector<int>& order = tg.order;

  // Pre-size exports_ so tasks publish by assigning mapped values only.
  // Digest-neutral: procedure_digest and ProcGen consult exports_ by
  // callee name, and every real callee's value is final before its
  // callers run.
  for (const auto& proc : procs) exports_[proc->name];

  tg.graph.run(pool, [&](size_t k) {
    const int idx = order[k];
    const Procedure& proc = *procs[static_cast<size_t>(idx)];
    ProcOut& out = outs[static_cast<size_t>(idx)];
    if (cache_) {
      out.digest = procedure_digest(proc, program_, ipa_, overlaps_,
                                    options_, exports_);
      if (auto hit = cache_->lookup(out.digest)) {
        out.compiled = hit->compiled->clone_as(hit->compiled->name);
        out.exports = hit->exports;
        out.storage = hit->storage;
        out.stats = hit->stats;
        out.from_cache = true;
      }
    }
    if (!out.from_cache) {
      ProcGen gen(*this, proc);
      out.compiled = gen.run(out.exports);
      out.stats = gen.stats();
      out.storage = compute_storage(*this, proc, out.exports, out.stats);
    }
    exports_[proc.name] = out.exports;
  });
  sched_stats_ += tg.graph.stats();

  // Deterministic commit: everything whose order the serial walk fixed
  // is published in reverse topological order, regardless of the order
  // the schedule completed nodes in.
  for (size_t k = 0; k < order.size(); ++k) {
    ProcOut& out = outs[static_cast<size_t>(order[k])];
    if (out.from_cache) continue;
    last_generated_.push_back(procs[static_cast<size_t>(order[k])]->name);
    if (cache_) {
      CachedProcedure entry;
      entry.compiled = out.compiled->clone_as(out.compiled->name);
      entry.exports = out.exports;
      entry.storage = out.storage;
      entry.stats = out.stats;
      cache_->insert(out.digest, std::move(entry));
    }
  }
}

SpmdProgram generate_spmd(const BoundProgram& program, const IpaContext& ipa,
                          const CodegenOptions& options) {
  CodeGenerator cg(program, ipa, options);
  return cg.generate();
}

}  // namespace fortd
