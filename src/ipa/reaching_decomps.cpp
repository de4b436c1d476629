#include "ipa/reaching_decomps.hpp"

#include "support/thread_pool.hpp"

namespace fortd {

std::set<DecompSpec> ReachingDecomps::specs_for(const std::string& proc,
                                                const std::string& var) const {
  std::set<DecompSpec> out;
  auto pit = at_stmt.find(proc);
  if (pit == at_stmt.end()) return out;
  for (const auto& [stmt, vars] : pit->second) {
    auto vit = vars.find(var);
    if (vit == vars.end()) continue;
    for (const auto& spec : vit->second)
      if (!spec.is_top) out.insert(spec);
  }
  return out;
}

std::optional<DecompSpec> ReachingDecomps::unique_spec(
    const std::string& proc, const std::string& var) const {
  auto specs = specs_for(proc, var);
  if (specs.size() != 1) return std::nullopt;
  return *specs.begin();
}

bool ReachingDecomps::has_conflict(const std::string& proc,
                                   const std::string& var) const {
  return specs_for(proc, var).size() > 1;
}

std::set<DecompSpec> ReachingDecomps::specs_at(const std::string& proc,
                                               const Stmt* stmt,
                                               const std::string& var) const {
  auto pit = at_stmt.find(proc);
  if (pit == at_stmt.end()) return {};
  auto sit = pit->second.find(stmt);
  if (sit == pit->second.end()) return {};
  auto vit = sit->second.find(var);
  if (vit == sit->second.end()) return {};
  return vit->second;
}

std::map<std::string, std::set<DecompSpec>> pull_reaching(
    const BoundProgram& program, const AugmentedCallGraph& acg,
    const ReachingDecomps& rd, const std::string& name) {
  std::map<std::string, std::set<DecompSpec>> target;
  const Procedure* callee = program.find(name);
  if (!callee) return target;
  const SymbolTable& callee_st = program.symtab(name);

  // Union over every call site targeting `name`, translating the resolved
  // sets at the site (Fig. 6's Translate step). Site order is irrelevant:
  // the result is a set union, canonical in std::map/std::set form, so the
  // pull direction matches the push-style serial propagation exactly.
  for (const CallSiteInfo* site : acg.calls_to(name)) {
    auto pit = rd.at_stmt.find(site->caller);
    if (pit == rd.at_stmt.end()) continue;
    auto sit = pit->second.find(site->stmt);
    if (sit == pit->second.end()) continue;
    const auto& at_call = sit->second;

    // Formals: positionally matched array actuals.
    for (size_t f = 0; f < callee->formals.size() && f < site->actuals.size();
         ++f) {
      const Expr* actual = site->actuals[f];
      if (actual->kind != ExprKind::VarRef) continue;
      auto vit = at_call.find(actual->name);
      if (vit == at_call.end()) continue;
      for (const auto& spec : vit->second)
        if (!spec.is_top) target[callee->formals[f]].insert(spec);
    }
    // Globals: copied by name when the callee (transitively) declares
    // them; we copy whenever the name is an array in the caller and a
    // global array in the callee.
    for (const auto& [var, specs] : at_call) {
      const Symbol* sym = callee_st.lookup(var);
      if (!sym || !sym->is_global()) continue;
      for (const auto& spec : specs)
        if (!spec.is_top) target[var].insert(spec);
    }
  }
  return target;
}

int update_reaching_decomps(const BoundProgram& program,
                            const AugmentedCallGraph& acg,
                            const std::map<std::string, ProcSummary>& summaries,
                            const std::set<std::string>& dirty,
                            ReachingDecomps& rd, ThreadPool* pool,
                            TaskGraphStats* sched_stats) {
  (void)summaries;
  // Callers first (AcgTaskGraph): a procedure re-pulls once its own
  // callers resolved. Whether a node is a candidate (dirty, or a caller
  // actually republished) and whether it hits the change cutoff are pure
  // functions of its callers' outcomes, so the recomputed set — and the
  // final maps — match the serial schedule exactly. Pre-sized entries of
  // nodes that never published and had no prior entry are erased
  // afterwards: §8 recompilation hashes are sensitive to entry *presence*
  // (hash_recompilation mixes Reaching(P) only when the entry exists), so
  // a lingering empty entry would perturb digests.
  const auto& procs = program.ast.procedures;
  AcgTaskGraph tg = acg.task_graph(/*callees_first=*/false);
  const std::vector<int>& order = tg.order;
  const std::vector<size_t>& node_of = tg.node_of;

  // had[k]: a stored entry predates this update — the change cutoff must
  // distinguish a genuine prior fixed point from the pre-sized
  // placeholder (an empty placeholder would spuriously equal an empty
  // pulled set and skip LocalReaching resolution).
  std::vector<char> had(order.size(), 0);
  std::vector<char> published(order.size(), 0);
  for (size_t k = 0; k < order.size(); ++k) {
    const std::string& name = procs[static_cast<size_t>(order[k])]->name;
    had[k] = rd.reaching.count(name) ? 1 : 0;
    rd.reaching[name];
    rd.at_stmt[name];
  }

  tg.graph.run(pool, [&](size_t k) {
    const Procedure& proc = *procs[static_cast<size_t>(order[k])];
    bool candidate = dirty.count(proc.name) > 0;
    if (!candidate)
      for (const CallSiteInfo* site : acg.calls_to(proc.name)) {
        const int caller = acg.procedure_index(site->caller);
        if (caller >= 0 && published[node_of[static_cast<size_t>(caller)]]) {
          candidate = true;
          break;
        }
      }
    if (!candidate) return;
    auto pulled = pull_reaching(program, acg, rd, proc.name);
    // Change cutoff: text unchanged + identical pulled input ⇒ the
    // stored Reaching/at_stmt entries are still the fixed point.
    if (!dirty.count(proc.name) && had[k] &&
        rd.reaching[proc.name] == pulled)
      return;
    rd.at_stmt[proc.name] = compute_local_reaching(program, proc, pulled);
    rd.reaching[proc.name] = std::move(pulled);
    published[k] = 1;
  });
  if (sched_stats) *sched_stats += tg.graph.stats();

  int recomputed = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    if (published[k]) {
      ++recomputed;
    } else if (!had[k]) {
      const std::string& name = procs[static_cast<size_t>(order[k])]->name;
      rd.reaching.erase(name);
      rd.at_stmt.erase(name);
    }
  }
  return recomputed;
}

ReachingDecomps compute_reaching_decomps(
    const BoundProgram& program, const AugmentedCallGraph& acg,
    const std::map<std::string, ProcSummary>& summaries, ThreadPool* pool) {
  ReachingDecomps rd;
  std::set<std::string> all;
  for (const auto& proc : program.ast.procedures) all.insert(proc->name);
  update_reaching_decomps(program, acg, summaries, all, rd, pool);
  return rd;
}

}  // namespace fortd
