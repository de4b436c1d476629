#include "ipa/call_graph.hpp"

#include <algorithm>
#include <functional>

namespace fortd {

AugmentedCallGraph AugmentedCallGraph::build(const BoundProgram& program) {
  AugmentedCallGraph acg;

  // Collect call sites with their enclosing-loop context.
  for (const auto& proc : program.ast.procedures) {
    const SymbolTable& st = program.symtab(proc->name);
    SymbolicEnv env = SymbolicEnv::from_params(*proc, st);

    std::vector<AcgLoop> loop_stack;
    std::function<void(const std::vector<StmtPtr>&)> visit =
        [&](const std::vector<StmtPtr>& stmts) {
          for (const auto& s : stmts) {
            switch (s->kind) {
              case StmtKind::Do: {
                AcgLoop loop;
                loop.stmt = s.get();
                loop.var = s->loop_var;
                auto lb = eval_int(*s->lb, env);
                auto ub = eval_int(*s->ub, env);
                auto step = s->step ? eval_int(*s->step, env)
                                    : std::optional<int64_t>(1);
                if (lb && ub && step && *step > 0)
                  loop.range = Triplet(*lb, *ub, *step);
                loop_stack.push_back(loop);
                visit(s->body);
                loop_stack.pop_back();
                break;
              }
              case StmtKind::If:
                visit(s->then_body);
                visit(s->else_body);
                break;
              case StmtKind::Call: {
                if (!program.ast.find(s->callee)) break;  // intrinsic
                CallSiteInfo site;
                site.site_id = static_cast<int>(acg.sites_.size());
                site.caller = proc->name;
                site.callee = s->callee;
                site.stmt = s.get();
                for (const auto& a : s->call_args) site.actuals.push_back(a.get());
                site.enclosing_loops = loop_stack;
                // Fig. 5 annotation: formals receiving loop index variables.
                for (size_t f = 0; f < s->call_args.size(); ++f) {
                  const Expr* a = s->call_args[f].get();
                  if (a->kind != ExprKind::VarRef) continue;
                  for (const auto& loop : loop_stack)
                    if (loop.var == a->name && loop.range)
                      site.formal_loop_ranges[static_cast<int>(f)] = *loop.range;
                }
                acg.site_of_stmt_[s.get()] = site.site_id;
                acg.sites_.push_back(std::move(site));
                break;
              }
              default:
                break;
            }
          }
        };
    visit(proc->body);
  }

  // Per-caller / per-callee call-site indices: calls_to/calls_from are on
  // the hot path of every interprocedural phase and must not scan sites_.
  for (const auto& site : acg.sites_) {
    acg.sites_from_[site.caller].push_back(site.site_id);
    acg.sites_to_[site.callee].push_back(site.site_id);
  }

  // Topological sort (Kahn) over the procedure call DAG.
  std::map<std::string, int> in_degree;
  std::map<std::string, std::vector<std::string>> succs;
  for (const auto& proc : program.ast.procedures) in_degree[proc->name] = 0;
  for (const auto& site : acg.sites_) {
    succs[site.caller].push_back(site.callee);
    ++in_degree[site.callee];
  }
  std::vector<std::string> ready;
  for (const auto& proc : program.ast.procedures)
    if (in_degree[proc->name] == 0) ready.push_back(proc->name);
  // Keep source order deterministic; the worklist is drained through a
  // head index instead of erase(begin()) (which made Kahn quadratic).
  for (size_t head = 0; head < ready.size(); ++head) {
    std::string p = ready[head];
    acg.topo_.push_back(p);
    for (const auto& q : succs[p])
      if (--in_degree[q] == 0) ready.push_back(q);
  }
  if (acg.topo_.size() != program.ast.procedures.size())
    throw CompileError({}, "recursive call graph: the single-pass Fortran D "
                           "compilation strategy requires non-recursive programs");

  for (size_t i = 0; i < program.ast.procedures.size(); ++i)
    acg.index_of_[program.ast.procedures[i]->name] = static_cast<int>(i);
  acg.topo_indices_.reserve(acg.topo_.size());
  for (const auto& name : acg.topo_)
    acg.topo_indices_.push_back(acg.index_of_.at(name));
  return acg;
}

std::vector<const CallSiteInfo*> AugmentedCallGraph::calls_to(
    const std::string& callee) const {
  std::vector<const CallSiteInfo*> out;
  auto it = sites_to_.find(callee);
  if (it == sites_to_.end()) return out;
  out.reserve(it->second.size());
  for (int id : it->second) out.push_back(&sites_[static_cast<size_t>(id)]);
  return out;
}

std::vector<const CallSiteInfo*> AugmentedCallGraph::calls_from(
    const std::string& caller) const {
  std::vector<const CallSiteInfo*> out;
  auto it = sites_from_.find(caller);
  if (it == sites_from_.end()) return out;
  out.reserve(it->second.size());
  for (int id : it->second) out.push_back(&sites_[static_cast<size_t>(id)]);
  return out;
}

const CallSiteInfo* AugmentedCallGraph::site_for(const Stmt* call_stmt) const {
  auto it = site_of_stmt_.find(call_stmt);
  return it == site_of_stmt_.end() ? nullptr : &sites_[static_cast<size_t>(it->second)];
}

std::vector<std::string> AugmentedCallGraph::reverse_topological_order() const {
  std::vector<std::string> out = topo_;
  std::reverse(out.begin(), out.end());
  return out;
}

int AugmentedCallGraph::procedure_index(const std::string& name) const {
  auto it = index_of_.find(name);
  return it == index_of_.end() ? -1 : it->second;
}

std::vector<int> AugmentedCallGraph::reverse_topological_indices() const {
  std::vector<int> out(topo_indices_.rbegin(), topo_indices_.rend());
  return out;
}

AcgTaskGraph AugmentedCallGraph::task_graph(bool callees_first) const {
  AcgTaskGraph g{callees_first ? reverse_topological_indices() : topo_indices_,
                 std::vector<size_t>(topo_indices_.size(), 0),
                 TaskGraph(topo_indices_.size())};
  for (size_t k = 0; k < g.order.size(); ++k)
    g.node_of[static_cast<size_t>(g.order[k])] = k;
  for (const CallSiteInfo& site : sites_) {
    const int caller = procedure_index(site.caller);
    const int callee = procedure_index(site.callee);
    if (caller < 0 || callee < 0) continue;
    const size_t from = g.node_of[static_cast<size_t>(caller)];
    const size_t to = g.node_of[static_cast<size_t>(callee)];
    if (callees_first)
      g.graph.add_dependency(from, to);
    else
      g.graph.add_dependency(to, from);
  }
  return g;
}

std::vector<std::vector<int>> AugmentedCallGraph::wavefront_levels() const {
  // level(P) = 1 + max(level(callee)); leaves sit at level 0. Walking the
  // reverse topological order guarantees every callee's level is final
  // before its callers are placed.
  std::map<std::string, int> level;
  std::map<std::string, std::vector<std::string>> callees;
  for (const auto& s : sites_) callees[s.caller].push_back(s.callee);
  int max_level = -1;
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    int lvl = 0;
    auto cit = callees.find(*it);
    if (cit != callees.end())
      for (const auto& c : cit->second)
        lvl = std::max(lvl, level.at(c) + 1);
    level[*it] = lvl;
    max_level = std::max(max_level, lvl);
  }
  std::vector<std::vector<int>> out(static_cast<size_t>(max_level + 1));
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it)
    out[static_cast<size_t>(level.at(*it))].push_back(index_of_.at(*it));
  return out;
}

}  // namespace fortd
