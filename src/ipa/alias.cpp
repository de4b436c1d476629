#include "ipa/alias.hpp"

#include <sstream>

#include "ir/rsd.hpp"
#include "ir/symbol_table.hpp"
#include "support/thread_pool.hpp"

namespace fortd {

AliasPair AliasPair::make(std::string x, std::string y, std::string via_proc,
                          SourceLoc site_loc) {
  AliasPair p;
  if (y < x) std::swap(x, y);
  p.a = std::move(x);
  p.b = std::move(y);
  p.via = std::move(via_proc);
  p.loc = site_loc;
  return p;
}

const std::set<AliasPair>* AliasMap::of(const std::string& proc) const {
  auto it = pairs.find(proc);
  if (it == pairs.end() || it->second.empty()) return nullptr;
  return &it->second;
}

bool AliasMap::may_alias(const std::string& proc, const std::string& x,
                         const std::string& y) const {
  return find(proc, x, y) != nullptr;
}

const AliasPair* AliasMap::find(const std::string& proc, const std::string& x,
                                const std::string& y) const {
  const std::set<AliasPair>* set = of(proc);
  if (!set) return nullptr;
  auto it = set->find(AliasPair::make(x, y, "", {}));
  return it == set->end() ? nullptr : &*it;
}

int AliasMap::total_pairs() const {
  int n = 0;
  for (const auto& [proc, set] : pairs) n += static_cast<int>(set.size());
  return n;
}

std::string AliasMap::str() const {
  std::ostringstream os;
  for (const auto& [proc, set] : pairs) {
    if (set.empty()) continue;
    os << proc << ":\n";
    for (const AliasPair& p : set) {
      os << "  {" << p.a << ", " << p.b << "} via " << p.via << " @"
         << p.loc.line << ":" << p.loc.col << "\n";
    }
  }
  return os.str();
}

namespace {

/// The caller-side storage covered by an actual argument, in the declared
/// index space of its base array. Exact only in the 1-D constant case
/// (constant subscript, constant-extent rank-1 formal), where Fortran
/// sequence association makes `a(c)` bound to a formal of extent E cover
/// exactly a(c : c+E-1); everything else conservatively covers the whole
/// declared array.
Rsd cover_of(const Expr& actual, const Symbol& base, const Symbol* formal_sym) {
  if (actual.kind == ExprKind::ArrayRef && base.rank() == 1 &&
      base.dims_const && formal_sym && formal_sym->is_array() &&
      formal_sym->rank() == 1 && formal_sym->dims_const &&
      actual.args.size() == 1 && actual.args[0]->kind == ExprKind::IntLit) {
    const int64_t start = actual.args[0]->int_val;
    const int64_t len = formal_sym->extent(0);
    if (len > 0) return Rsd({Triplet(start, start + len - 1, 1)});
  }
  return base.full_section();
}

struct ActualInfo {
  int formal = -1;       // formal position at the site
  std::string base;      // caller-side base name
  const Expr* expr = nullptr;
};

}  // namespace

std::set<AliasPair> pull_alias(const BoundProgram& program,
                               const AugmentedCallGraph& acg,
                               const AliasMap& am, const std::string& name) {
  std::set<AliasPair> out;
  const Procedure* callee = program.find(name);
  if (!callee) return out;
  const SymbolTable& callee_st = program.symtab(name);

  // Union over every call site targeting `name`. Site order is irrelevant:
  // identity is the sorted name pair and std::set canonicalizes, while
  // provenance ties break on insertion order — calls_to() is deterministic,
  // so the winning provenance is too.
  for (const CallSiteInfo* site : acg.calls_to(name)) {
    const SymbolTable& caller_st = program.symtab(site->caller);
    const SourceLoc site_loc = site->stmt ? site->stmt->loc : SourceLoc{};

    std::vector<ActualInfo> actuals;
    for (size_t f = 0; f < callee->formals.size() && f < site->actuals.size();
         ++f) {
      const Expr* a = site->actuals[f];
      if (a->kind != ExprKind::VarRef && a->kind != ExprKind::ArrayRef)
        continue;
      actuals.push_back({static_cast<int>(f), a->name, a});
    }

    auto add = [&](const std::string& x, const std::string& y) {
      if (x == y) return;
      out.insert(AliasPair::make(x, y, site->caller, site_loc));
    };

    // (1) Two actuals sharing a base: formal↔formal unless the covered
    // sections are provably disjoint under sequence association.
    for (size_t i = 0; i < actuals.size(); ++i) {
      for (size_t j = i + 1; j < actuals.size(); ++j) {
        if (actuals[i].base != actuals[j].base) continue;
        const Symbol* base = caller_st.lookup(actuals[i].base);
        if (base && base->is_array()) {
          const Symbol* fi =
              callee_st.lookup(callee->formals[static_cast<size_t>(
                  actuals[i].formal)]);
          const Symbol* fj =
              callee_st.lookup(callee->formals[static_cast<size_t>(
                  actuals[j].formal)]);
          const Rsd ci = cover_of(*actuals[i].expr, *base, fi);
          const Rsd cj = cover_of(*actuals[j].expr, *base, fj);
          if (ci.rank() == cj.rank() && Rsd::intersect(ci, cj).empty())
            continue;  // provably disjoint sections of one array
        }
        add(callee->formals[static_cast<size_t>(actuals[i].formal)],
            callee->formals[static_cast<size_t>(actuals[j].formal)]);
      }
    }

    // (2) An actual whose base is visible in the callee as a COMMON
    // global: the formal and the global name the same storage.
    for (const ActualInfo& a : actuals) {
      const Symbol* g = callee_st.lookup(a.base);
      if (g && g->is_global())
        add(callee->formals[static_cast<size_t>(a.formal)], a.base);
    }

    // (3) Caller pairs flow through the site: each member maps to the
    // formals its base is bound to, plus itself when visible in the
    // callee as a global. May-alias is not transitive, so only direct
    // images of one caller pair combine.
    auto pit = am.pairs.find(site->caller);
    if (pit == am.pairs.end()) continue;
    auto targets = [&](const std::string& caller_name) {
      std::vector<std::string> t;
      for (const ActualInfo& a : actuals)
        if (a.base == caller_name)
          t.push_back(callee->formals[static_cast<size_t>(a.formal)]);
      const Symbol* g = callee_st.lookup(caller_name);
      if (g && g->is_global()) t.push_back(caller_name);
      return t;
    };
    for (const AliasPair& cp : pit->second) {
      for (const std::string& x : targets(cp.a))
        for (const std::string& y : targets(cp.b)) add(x, y);
    }
  }
  return out;
}

AliasMap compute_alias_map(const BoundProgram& program,
                           const AugmentedCallGraph& acg, ThreadPool* pool,
                           TaskGraphStats* sched_stats) {
  // Callers first (AcgTaskGraph), like update_reaching_decomps. Empty
  // entries are erased afterwards so the map is canonical: only
  // procedures with pairs have an entry.
  const auto& procs = program.ast.procedures;
  AcgTaskGraph tg = acg.task_graph(/*callees_first=*/false);
  const std::vector<int>& order = tg.order;

  AliasMap am;
  for (size_t k = 0; k < order.size(); ++k)
    am.pairs[procs[static_cast<size_t>(order[k])]->name];

  tg.graph.run(pool, [&](size_t k) {
    const std::string& name = procs[static_cast<size_t>(order[k])]->name;
    am.pairs[name] = pull_alias(program, acg, am, name);
  });
  if (sched_stats) *sched_stats += tg.graph.stats();

  for (auto it = am.pairs.begin(); it != am.pairs.end();) {
    if (it->second.empty())
      it = am.pairs.erase(it);
    else
      ++it;
  }
  return am;
}

}  // namespace fortd
