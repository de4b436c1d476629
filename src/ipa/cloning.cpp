#include "ipa/cloning.hpp"

#include <algorithm>

#include "ipa/summary_cache.hpp"
#include "support/thread_pool.hpp"

namespace fortd {

namespace {

/// Canonical key for a translated+filtered reaching set, used to partition
/// call sites (call sites providing equal decompositions share a clone).
std::string partition_key(
    const std::map<std::string, std::set<DecompSpec>>& reaching) {
  std::string key;
  for (const auto& [var, specs] : reaching) {
    key += var + "=";
    for (const auto& spec : specs) key += spec.str() + "|";
    key += ";";
  }
  return key;
}

/// Translate the resolved reaching sets at a call site into the callee's
/// name space, keeping only variables in `appear`. With `aliases` (the
/// callee's may-alias pairs), the specs of each pair's members are
/// unioned: aliased names share storage, so a partition key must not
/// distinguish which member a decomposition arrived through.
std::map<std::string, std::set<DecompSpec>> translate_and_filter(
    const std::map<std::string, std::set<DecompSpec>>& at_call,
    const Procedure& callee, const CallSiteInfo& site,
    const std::set<std::string>& appear,
    const std::set<AliasPair>* aliases = nullptr) {
  std::map<std::string, std::set<DecompSpec>> out;
  auto add = [&](const std::string& callee_var, const std::set<DecompSpec>& specs) {
    if (!appear.count(callee_var)) return;  // Filter (Fig. 8)
    for (const auto& spec : specs)
      if (!spec.is_top) out[callee_var].insert(spec);
  };
  for (size_t f = 0; f < callee.formals.size() && f < site.actuals.size(); ++f) {
    const Expr* actual = site.actuals[f];
    if (actual->kind != ExprKind::VarRef) continue;
    auto it = at_call.find(actual->name);
    if (it != at_call.end()) add(callee.formals[f], it->second);
  }
  for (const auto& [var, specs] : at_call) {
    if (callee.formal_index(var) >= 0) continue;
    add(var, specs);
  }
  if (aliases) {
    for (const AliasPair& p : *aliases) {
      auto ia = out.find(p.a);
      auto ib = out.find(p.b);
      if (ia == out.end() && ib == out.end()) continue;
      std::set<DecompSpec> merged;
      if (ia != out.end()) merged.insert(ia->second.begin(), ia->second.end());
      if (ib != out.end()) merged.insert(ib->second.begin(), ib->second.end());
      // Only widen names that passed the Filter — don't grow the key with
      // variables the callee never accesses.
      if (ia != out.end()) ia->second = merged;
      if (ib != out.end()) ib->second = std::move(merged);
    }
  }
  return out;
}

void retarget_call(BoundProgram& program, const std::string& caller,
                   const Stmt* call_stmt, const std::string& new_callee) {
  Procedure* proc = program.find(caller);
  walk_stmts(proc->body, [&](Stmt& s) {
    if (&s == call_stmt) s.callee = new_callee;
  });
}

}  // namespace

int apply_cloning_pass(BoundProgram& program, IpaContext& ctx,
                       const IpaOptions& options, CloneDelta* delta) {
  int clones = 0;

  // Visit in topological order so callers' reaching sets are final before
  // their callees are partitioned.
  for (const std::string& name : ctx.acg.topological_order()) {
    const Procedure* proc = program.find(name);
    if (!proc || proc->is_program) continue;
    auto sites = ctx.acg.calls_to(name);
    if (sites.size() < 2) continue;

    std::set<std::string> appear = ctx.effects.appear(name, program);
    std::map<std::string, std::vector<const CallSiteInfo*>> partitions;
    std::vector<std::string> order;  // deterministic partition order
    for (const CallSiteInfo* site : sites) {
      const auto& caller_at_stmt = ctx.reaching.at_stmt.at(site->caller);
      auto sit = caller_at_stmt.find(site->stmt);
      std::map<std::string, std::set<DecompSpec>> translated;
      if (sit != caller_at_stmt.end())
        translated = translate_and_filter(sit->second, *proc, *site, appear,
                                          ctx.alias.of(name));
      std::string key = partition_key(translated);
      if (!partitions.count(key)) order.push_back(key);
      partitions[key].push_back(site);
    }
    if (partitions.size() < 2) continue;

    // Growth threshold check (§5.2): fall back to run-time resolution.
    if (static_cast<int>(program.ast.procedures.size() + partitions.size() - 1) >
        options.max_procedures) {
      ctx.runtime_fallback.insert(name);
      continue;
    }

    // The first partition keeps the original procedure; each further
    // partition gets a clone.
    for (size_t i = 1; i < order.size(); ++i) {
      std::string clone_name;
      for (int suffix = static_cast<int>(i) + 1;; ++suffix) {
        clone_name = name + "$" + std::to_string(suffix);
        if (!program.find(clone_name)) break;
      }
      program.add_procedure(proc->clone_as(clone_name));
      std::string origin = name;
      auto oit = ctx.clone_origin.find(name);
      if (oit != ctx.clone_origin.end()) origin = oit->second;
      ctx.clone_origin[clone_name] = origin;
      for (const CallSiteInfo* site : partitions[order[i]]) {
        retarget_call(program, site->caller, site->stmt, clone_name);
        if (delta) delta->retargeted_callers.insert(site->caller);
      }
      if (delta) {
        delta->new_clones.push_back(clone_name);
        delta->cloned_origins.insert(name);
      }
      ++clones;
      // `proc` pointer may have been invalidated by add_procedure's
      // vector growth; refetch.
      proc = program.find(name);
    }
  }
  ctx.clones_created += clones;
  return clones;
}

IpaContext run_ipa(BoundProgram& program, const IpaOptions& options,
                   ThreadPool* pool, IpaSummaryCache* summary_cache) {
  IpaContext ctx;
  CloneDelta delta;
  bool have_delta = false;  // false on the first round: everything is new
  for (int round = 0; round < 64; ++round) {
    ++ctx.stats.rounds;
    ctx.acg = AugmentedCallGraph::build(program);
    const int n = static_cast<int>(program.ast.procedures.size());
    SummaryPhaseStats sum_stats;

    // May-alias pairs depend only on the ACG (sites + symbol tables), so a
    // full recompute per round is cheap; the previous round's map is kept
    // to seed the incremental side-effect dirty set below.
    AliasMap prev_alias = std::move(ctx.alias);
    ctx.alias = compute_alias_map(program, ctx.acg, pool, &ctx.stats.sched);

    if (!have_delta || !options.incremental) {
      ctx.summaries =
          compute_all_summaries(program, pool, summary_cache, &sum_stats);
      std::set<std::string> all;
      for (const auto& proc : program.ast.procedures) all.insert(proc->name);
      ctx.effects = SideEffects{};
      update_side_effects(program, ctx.acg, ctx.summaries, all, ctx.effects,
                          pool, &ctx.stats.sched, &ctx.alias);
      ctx.reaching = ReachingDecomps{};
      update_reaching_decomps(program, ctx.acg, ctx.summaries, all,
                              ctx.reaching, pool, &ctx.stats.sched);
    } else {
      ++ctx.stats.rounds_incremental;
      // Summaries: only bodies of new clones and retargeted callers
      // changed (retargeting rewrites `s.callee`, so their hashes and
      // LocalReaching entries differ); everything else is carried over.
      // Statement pointers stay valid across rounds — statements are
      // individually heap-allocated and cloning only appends procedures.
      std::set<std::string> dirty_sum = delta.retargeted_callers;
      dirty_sum.insert(delta.new_clones.begin(), delta.new_clones.end());
      std::vector<std::string> names;  // deterministic program order
      for (const auto& proc : program.ast.procedures)
        if (dirty_sum.count(proc->name)) names.push_back(proc->name);
      compute_summaries_into(program, names, ctx.summaries, pool,
                             summary_cache, &sum_stats);
      ctx.stats.summaries_reused += n - static_cast<int>(names.size());

      // Side effects flow bottom-up: close the dirty set upward (any
      // caller of a dirty procedure is dirty). A changed alias entry also
      // dirties its procedure — widening reads the pair set, so carrying
      // the old entry over would bake in stale pairs.
      std::set<std::string> dirty_fx = dirty_sum;
      for (const auto& proc : program.ast.procedures) {
        const std::set<AliasPair>* now = ctx.alias.of(proc->name);
        const std::set<AliasPair>* was = prev_alias.of(proc->name);
        if ((now == nullptr) != (was == nullptr) ||
            (now && was && *now != *was))
          dirty_fx.insert(proc->name);
      }
      for (const std::string& nm : ctx.acg.reverse_topological_order()) {
        if (dirty_fx.count(nm)) continue;
        for (const CallSiteInfo* site : ctx.acg.calls_from(nm))
          if (dirty_fx.count(site->callee)) {
            dirty_fx.insert(nm);
            break;
          }
      }
      ctx.stats.effects_reused += n - static_cast<int>(dirty_fx.size());
      update_side_effects(program, ctx.acg, ctx.summaries, dirty_fx,
                          ctx.effects, pool, &ctx.stats.sched, &ctx.alias);

      // Reaching flows top-down: seed with the text-changed procedures
      // plus originals that lost sites to a clone (the retargeted edge is
      // *gone* from the new ACG, so the origin is not a callee of any
      // recomputed caller and must be forced to re-pull its shrunken
      // set); the propagation's change cutoff decides how far each edit
      // travels from there.
      std::set<std::string> dirty_rd = dirty_sum;
      dirty_rd.insert(delta.cloned_origins.begin(),
                      delta.cloned_origins.end());
      ctx.stats.reaching_reused +=
          n - update_reaching_decomps(program, ctx.acg, ctx.summaries,
                                      dirty_rd, ctx.reaching, pool,
                                      &ctx.stats.sched);
    }
    ctx.stats.summaries_computed += sum_stats.computed;
    ctx.stats.summaries_cached += sum_stats.cached;

    delta = CloneDelta{};
    if (apply_cloning_pass(program, ctx, options, &delta) == 0) break;
    have_delta = true;
  }
  return ctx;
}

}  // namespace fortd
