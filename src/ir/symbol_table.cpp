#include "ir/symbol_table.hpp"

#include <algorithm>
#include <set>

namespace fortd {

int64_t Symbol::extent(int d) const {
  auto [lb, ub] = dims[static_cast<size_t>(d)];
  return ub - lb + 1;
}

Rsd Symbol::full_section() const { return Rsd::dense(dims); }

const Symbol* SymbolTable::lookup(const std::string& name) const {
  auto it = table_.find(name);
  return it == table_.end() ? nullptr : &it->second;
}

Symbol* SymbolTable::lookup(const std::string& name) {
  auto it = table_.find(name);
  return it == table_.end() ? nullptr : &it->second;
}

void SymbolTable::insert(Symbol sym) { table_[sym.name] = std::move(sym); }

std::vector<std::string> SymbolTable::array_names() const {
  std::vector<std::string> names;
  for (const auto& [name, sym] : table_)
    if (sym.is_array()) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::optional<int64_t> try_eval_int(
    const Expr& e, const std::unordered_map<std::string, int64_t>& env) {
  switch (e.kind) {
    case ExprKind::IntLit:
      return e.int_val;
    case ExprKind::VarRef: {
      auto it = env.find(e.name);
      if (it == env.end()) return std::nullopt;
      return it->second;
    }
    case ExprKind::Unary: {
      if (e.un_op != UnOp::Neg) return std::nullopt;
      auto v = try_eval_int(*e.args[0], env);
      if (!v) return std::nullopt;
      return -*v;
    }
    case ExprKind::Binary: {
      auto l = try_eval_int(*e.args[0], env);
      auto r = try_eval_int(*e.args[1], env);
      if (!l || !r) return std::nullopt;
      switch (e.bin_op) {
        case BinOp::Add: return *l + *r;
        case BinOp::Sub: return *l - *r;
        case BinOp::Mul: return *l * *r;
        case BinOp::Div:
          if (*r == 0) return std::nullopt;
          return *l / *r;
        default: return std::nullopt;
      }
    }
    case ExprKind::FuncCall: {
      // Fold the intrinsics codegen emits into bounds expressions.
      if (e.name == "min" || e.name == "max") {
        std::optional<int64_t> acc;
        for (const auto& a : e.args) {
          auto v = try_eval_int(*a, env);
          if (!v) return std::nullopt;
          if (!acc)
            acc = *v;
          else
            acc = e.name == "min" ? std::min(*acc, *v) : std::max(*acc, *v);
        }
        return acc;
      }
      if (e.name == "mod" && e.args.size() == 2) {
        auto l = try_eval_int(*e.args[0], env);
        auto r = try_eval_int(*e.args[1], env);
        if (!l || !r || *r == 0) return std::nullopt;
        return *l % *r;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

namespace {

/// The first node of array bound `e` that keeps it from being an F77
/// adjustable bound — built from integer literals, PARAMETER constants
/// (`env`), the names in `vars` (a subroutine's formals and COMMON
/// variables), arithmetic, and the min/max/mod intrinsics — or nullptr
/// when it is one.
const Expr* non_adjustable(const Expr& e,
                           const std::unordered_map<std::string, int64_t>& env,
                           const std::set<std::string>& vars) {
  switch (e.kind) {
    case ExprKind::IntLit:
      return nullptr;
    case ExprKind::VarRef:
      return env.count(e.name) || vars.count(e.name) ? nullptr : &e;
    case ExprKind::FuncCall:
      if (e.name != "min" && e.name != "max" && e.name != "mod") return &e;
      [[fallthrough]];
    case ExprKind::Binary:
    case ExprKind::Unary:
      for (const auto& a : e.args)
        if (const Expr* bad = non_adjustable(*a, env, vars)) return bad;
      return nullptr;
    default:
      return &e;
  }
}

}  // namespace

SymbolTable build_symbol_table(const Procedure& proc, DiagnosticEngine& diags) {
  SymbolTable table;
  std::unordered_map<std::string, int64_t> env;

  // A subroutine may bound its arrays by formals and COMMON variables
  // (adjustable arrays); a main program only by constants.
  std::set<std::string> bound_vars;
  if (!proc.is_program) {
    bound_vars.insert(proc.formals.begin(), proc.formals.end());
    for (const auto& blk : proc.commons)
      bound_vars.insert(blk.vars.begin(), blk.vars.end());
  }
  // Reject a bound the binder cannot evaluate now and codegen could not
  // evaluate later either.
  auto check_bound = [&](const VarDecl& decl, size_t d, const Expr& bound) {
    const Expr* bad = non_adjustable(bound, env, bound_vars);
    if (!bad && proc.is_program) bad = &bound;  // e.g. a division by zero
    if (!bad) return;
    std::string why = bad->kind == ExprKind::VarRef
                          ? "'" + bad->name + "' is not a PARAMETER constant"
                          : "it is not a compile-time constant";
    if (!proc.is_program && bad->kind == ExprKind::VarRef)
      why += ", a formal, or a COMMON variable";
    diags.error(bad->loc.valid() ? bad->loc : decl.loc,
                "bound of array '" + decl.name + "' in dimension " +
                    std::to_string(d + 1) + " of '" + proc.name + "': " + why);
  };

  // PARAMETER constants first: they may appear in later bounds.
  for (const auto& pc : proc.params) {
    auto v = try_eval_int(*pc.value, env);
    if (!v)
      diags.error(pc.value->loc,
                  "PARAMETER '" + pc.name + "' is not a compile-time constant");
    env[pc.name] = *v;
    Symbol sym;
    sym.name = pc.name;
    sym.kind = SymbolKind::Param;
    sym.type = ElemType::Integer;
    sym.param_value = *v;
    table.insert(std::move(sym));
  }

  for (const auto& decl : proc.decls) {
    Symbol sym;
    sym.name = decl.name;
    sym.type = decl.type;
    sym.kind = decl.is_decomposition ? SymbolKind::Decomposition
               : decl.dims.empty()   ? SymbolKind::Scalar
                                     : SymbolKind::Array;
    for (size_t d = 0; d < decl.dims.size(); ++d) {
      const ArrayDim& dim = decl.dims[d];
      int64_t lb = 1;
      bool ok = true;
      if (dim.lb) {
        auto v = try_eval_int(*dim.lb, env);
        if (v) {
          lb = *v;
        } else {
          check_bound(decl, d, *dim.lb);
          ok = false;
        }
      }
      int64_t ub = -1;
      auto v = try_eval_int(*dim.ub, env);
      if (v) {
        ub = *v;
      } else {
        check_bound(decl, d, *dim.ub);
        ok = false;
      }
      if (!ok) {
        sym.dims_const = false;
        sym.dims.emplace_back(1, -1);
      } else {
        sym.dims.emplace_back(lb, ub);
      }
    }
    sym.formal_index = proc.formal_index(decl.name);
    table.insert(std::move(sym));
  }

  // Formals without explicit declarations default to integer scalars
  // (Fortran implicit-style, restricted to scalars).
  for (size_t i = 0; i < proc.formals.size(); ++i) {
    if (table.lookup(proc.formals[i])) continue;
    Symbol sym;
    sym.name = proc.formals[i];
    sym.kind = SymbolKind::Scalar;
    sym.type = ElemType::Integer;
    sym.formal_index = static_cast<int>(i);
    table.insert(std::move(sym));
  }

  for (const auto& blk : proc.commons) {
    for (const auto& var : blk.vars) {
      Symbol* sym = table.lookup(var);
      if (!sym)
        diags.error({}, "COMMON variable '" + var + "' has no declaration in '" +
                            proc.name + "'");
      sym->common_block = blk.name;
    }
  }
  return table;
}

}  // namespace fortd
