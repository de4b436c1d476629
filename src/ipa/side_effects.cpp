#include "ipa/side_effects.hpp"

#include "support/thread_pool.hpp"

namespace fortd {

std::set<std::string> SideEffects::appear(const std::string& proc,
                                          const BoundProgram& program) const {
  std::set<std::string> out;
  const Procedure* p = program.find(proc);
  const SymbolTable& st = program.symtab(proc);
  auto consider = [&](const std::set<std::string>& names) {
    for (const auto& n : names) {
      const Symbol* sym = st.lookup(n);
      if (!sym) continue;
      if (sym->formal_index >= 0 || sym->is_global()) out.insert(n);
    }
  };
  auto mit = gmod.find(proc);
  if (mit != gmod.end()) consider(mit->second);
  auto rit = gref.find(proc);
  if (rit != gref.end()) consider(rit->second);
  (void)p;
  return out;
}

std::optional<std::string> translate_to_caller(const std::string& callee_var,
                                               const Procedure& callee,
                                               const CallSiteInfo& site) {
  int fi = callee.formal_index(callee_var);
  if (fi >= 0) {
    if (fi >= static_cast<int>(site.actuals.size())) return std::nullopt;
    const Expr* actual = site.actuals[static_cast<size_t>(fi)];
    if (actual->kind == ExprKind::VarRef || actual->kind == ExprKind::ArrayRef)
      return actual->name;
    return std::nullopt;  // expression actual: no l-value to propagate to
  }
  // Globals keep their name across procedures (COMMON by matching names).
  return callee_var;
}

ProcEffects compute_proc_effects(
    const BoundProgram& program, const AugmentedCallGraph& acg,
    const std::map<std::string, ProcSummary>& summaries, const SideEffects& fx,
    const std::string& name, const AliasMap* aliases) {
  const ProcSummary& sum = summaries.at(name);
  ProcEffects out;
  out.mod = sum.mod;
  out.ref = sum.ref;
  out.defs = sum.defs;
  out.uses = sum.uses;

  // Callee lookups are const (find, not operator[]): concurrent tasks
  // read `fx` while others publish their own entries.
  auto names_of = [](const std::map<std::string, std::set<std::string>>& m,
                     const std::string& k) -> const std::set<std::string>* {
    auto it = m.find(k);
    return it == m.end() ? nullptr : &it->second;
  };
  auto sections_of =
      [](const std::map<std::string, std::map<std::string, RsdList>>& m,
         const std::string& k) -> const std::map<std::string, RsdList>* {
    auto it = m.find(k);
    return it == m.end() ? nullptr : &it->second;
  };

  for (const CallSiteInfo* site : acg.calls_from(name)) {
    const Procedure* callee = program.find(site->callee);
    if (!callee) continue;
    auto add_names = [&](const std::set<std::string>* src,
                         std::set<std::string>& dst) {
      if (!src) return;
      for (const auto& v : *src) {
        auto t = translate_to_caller(v, *callee, *site);
        if (t) dst.insert(*t);
      }
    };
    add_names(names_of(fx.gmod, site->callee), out.mod);
    add_names(names_of(fx.gref, site->callee), out.ref);

    auto add_sections = [&](const std::map<std::string, RsdList>* src,
                            std::map<std::string, RsdList>& dst) {
      if (!src) return;
      for (const auto& [v, list] : *src) {
        auto t = translate_to_caller(v, *callee, *site);
        if (!t) continue;
        // Only propagate sections to a variable of matching rank; a
        // reshaped actual falls back to the whole declared section.
        const Symbol* sym = program.symtab(name).lookup(*t);
        if (!sym || !sym->is_array()) continue;
        for (const Rsd& r : list.sections()) {
          if (r.rank() == sym->rank())
            dst[*t].add_coalescing(r);
          else
            dst[*t].add_coalescing(sym->full_section());
        }
      }
    };
    add_sections(sections_of(fx.gdefs, site->callee), out.defs);
    add_sections(sections_of(fx.guses, site->callee), out.uses);
  }

  // Alias widening (§6.4): an access through one member of a may-alias
  // pair may touch the other's storage. One pass over the pair set against
  // a snapshot of the membership — may-alias is not transitive, so pairs
  // newly satisfied by widening must not chain.
  const std::set<AliasPair>* pairs = aliases ? aliases->of(name) : nullptr;
  if (pairs) {
    const SymbolTable& st = program.symtab(name);
    auto widen_names = [&](std::set<std::string>& s) {
      std::vector<std::string> add;
      for (const AliasPair& p : *pairs) {
        if (s.count(p.a)) add.push_back(p.b);
        if (s.count(p.b)) add.push_back(p.a);
      }
      s.insert(add.begin(), add.end());
    };
    widen_names(out.mod);
    widen_names(out.ref);
    // Sections: the relative offset between the two views is unknown in
    // general, so the widened member gets its whole declared section.
    auto widen_sections = [&](std::map<std::string, RsdList>& m) {
      std::vector<std::string> add;
      for (const AliasPair& p : *pairs) {
        if (m.count(p.a)) add.push_back(p.b);
        if (m.count(p.b)) add.push_back(p.a);
      }
      for (const std::string& v : add) {
        const Symbol* sym = st.lookup(v);
        if (sym && sym->is_array() && sym->dims_const)
          m[v].add_coalescing(sym->full_section());
      }
    };
    widen_sections(out.defs);
    widen_sections(out.uses);
  }
  return out;
}

void update_side_effects(const BoundProgram& program,
                         const AugmentedCallGraph& acg,
                         const std::map<std::string, ProcSummary>& summaries,
                         const std::set<std::string>& dirty, SideEffects& fx,
                         ThreadPool* pool, TaskGraphStats* sched_stats,
                         const AliasMap* aliases) {
  // Callees first (AcgTaskGraph): each dirty node recomputes its four
  // entries, pre-sized before the run. The final maps are a per-procedure
  // function of the callee entries, so every schedule — including the
  // serial index-order walk — produces identical maps.
  const auto& procs = program.ast.procedures;
  AcgTaskGraph tg = acg.task_graph(/*callees_first=*/true);
  const std::vector<int>& order = tg.order;
  for (const auto& proc : procs) {
    if (!dirty.count(proc->name)) continue;
    fx.gmod[proc->name];
    fx.gref[proc->name];
    fx.gdefs[proc->name];
    fx.guses[proc->name];
  }
  tg.graph.run(pool, [&](size_t k) {
    const std::string& name = procs[static_cast<size_t>(order[k])]->name;
    if (!dirty.count(name)) return;  // carried over unchanged
    ProcEffects e =
        compute_proc_effects(program, acg, summaries, fx, name, aliases);
    fx.gmod[name] = std::move(e.mod);
    fx.gref[name] = std::move(e.ref);
    fx.gdefs[name] = std::move(e.defs);
    fx.guses[name] = std::move(e.uses);
  });
  if (sched_stats) *sched_stats += tg.graph.stats();
}

SideEffects compute_side_effects(
    const BoundProgram& program, const AugmentedCallGraph& acg,
    const std::map<std::string, ProcSummary>& summaries, ThreadPool* pool,
    const AliasMap* aliases) {
  SideEffects fx;
  std::set<std::string> all;
  for (const auto& proc : program.ast.procedures) all.insert(proc->name);
  update_side_effects(program, acg, summaries, all, fx, pool, nullptr,
                      aliases);
  return fx;
}

}  // namespace fortd
