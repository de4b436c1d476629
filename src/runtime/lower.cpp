#include "runtime/lower.hpp"

#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace fortd {

namespace {

struct IntrinsicName {
  const char* name;
  Intrinsic fn;
  int32_t min_args;
};

constexpr IntrinsicName kIntrinsics[] = {
    {"myproc", Intrinsic::Myproc, 0}, {"min", Intrinsic::Min, 1},
    {"max", Intrinsic::Max, 1},       {"modp", Intrinsic::Modp, 2},
    {"mod", Intrinsic::Mod, 2},       {"abs", Intrinsic::Abs, 1},
    {"sqrt", Intrinsic::Sqrt, 1},     {"f", Intrinsic::F, 1},
};

NodeOp binary_op(BinOp op) {
  switch (op) {
    case BinOp::Add: return NodeOp::Add;
    case BinOp::Sub: return NodeOp::Sub;
    case BinOp::Mul: return NodeOp::Mul;
    case BinOp::Div: return NodeOp::Div;
    case BinOp::Eq: return NodeOp::Eq;
    case BinOp::Ne: return NodeOp::Ne;
    case BinOp::Lt: return NodeOp::Lt;
    case BinOp::Le: return NodeOp::Le;
    case BinOp::Gt: return NodeOp::Gt;
    case BinOp::Ge: return NodeOp::Ge;
    case BinOp::And: return NodeOp::And;
    case BinOp::Or: return NodeOp::Or;
  }
  return NodeOp::Add;
}

class ProcLowering {
 public:
  ProcLowering(const Procedure& proc, LProc& out,
               const std::unordered_map<std::string, int32_t>& globals,
               const std::unordered_map<std::string, int32_t>& procs)
      : out_(out), globals_(globals), procs_(procs) {
    for (const ParamConst& pc : proc.params)
      out_.params.emplace_back(name(pc.name).slot, expr(pc.value.get()));
    for (const std::string& formal : proc.formals)
      out_.formals.push_back(name(formal).slot);
    std::unordered_set<std::string> in_common;
    for (const CommonBlock& blk : proc.commons)
      in_common.insert(blk.vars.begin(), blk.vars.end());
    for (const VarDecl& decl : proc.decls) {
      if (decl.is_decomposition) continue;
      LDecl d;
      d.name = name(decl.name);
      if (in_common.count(decl.name)) d.common = d.name.global;
      d.type = decl.type;
      for (const ArrayDim& dim : decl.dims)
        d.dims.emplace_back(dim.lb ? expr(dim.lb.get()) : -1,
                            expr(dim.ub.get()));
      out_.decls.push_back(std::move(d));
    }
    auto [first, count] = stmts(proc.body);
    out_.body = first;
    out_.body_len = count;
  }

 private:
  NameRef name(const std::string& n) {
    auto [it, fresh] =
        slots_.emplace(n, static_cast<int32_t>(out_.names.size()));
    if (fresh) out_.names.push_back(n);
    auto g = globals_.find(n);
    return {it->second, g == globals_.end() ? -1 : g->second};
  }

  /// Lower `exprs` and record their node indices as one contiguous range
  /// of args.
  std::pair<int32_t, int32_t> list(const std::vector<ExprPtr>& exprs) {
    std::vector<int32_t> nodes;
    for (const ExprPtr& e : exprs) nodes.push_back(expr(e.get()));
    const auto first = static_cast<int32_t>(out_.args.size());
    out_.args.insert(out_.args.end(), nodes.begin(), nodes.end());
    return {first, static_cast<int32_t>(nodes.size())};
  }

  int32_t expr(const Expr* e) {
    LNode node;
    node.src = e;
    switch (e->kind) {
      case ExprKind::IntLit:
        node.op = NodeOp::Lit;
        node.lit = Value::of_int(e->int_val);
        break;
      case ExprKind::RealLit:
        node.op = NodeOp::Lit;
        node.lit = Value::of_real(e->real_val);
        break;
      case ExprKind::VarRef:
        node.op = NodeOp::Scalar;
        node.name = name(e->name);
        break;
      case ExprKind::ArrayRef:
        node.op = NodeOp::Element;
        node.name = name(e->name);
        std::tie(node.args, node.nargs) = list(e->args);
        break;
      case ExprKind::FuncCall:
        node.op = NodeOp::Call;
        node.fn = Intrinsic::Unknown;
        for (const IntrinsicName& in : kIntrinsics)
          if (e->name == in.name)
            node.fn = static_cast<int32_t>(e->args.size()) < in.min_args
                          ? Intrinsic::BadArity
                          : in.fn;
        if (e->name.rfind("owner$", 0) == 0) {
          node.fn = Intrinsic::Owner;
          node.name = name(e->name.substr(6));
        }
        std::tie(node.args, node.nargs) = list(e->args);
        break;
      case ExprKind::Unary:
        node.op = e->un_op == UnOp::Neg ? NodeOp::Neg : NodeOp::Not;
        node.lhs = expr(e->args[0].get());
        break;
      case ExprKind::Binary:
        node.op = binary_op(e->bin_op);
        node.lhs = expr(e->args[0].get());
        node.rhs = expr(e->args[1].get());
        break;
    }
    out_.nodes.push_back(node);
    return static_cast<int32_t>(out_.nodes.size() - 1);
  }

  /// Lower `list` into one contiguous range of stmts; nested bodies
  /// follow it.
  std::pair<int32_t, int32_t> stmts(const std::vector<StmtPtr>& list) {
    const auto first = static_cast<int32_t>(out_.stmts.size());
    out_.stmts.resize(out_.stmts.size() + list.size());
    for (size_t k = 0; k < list.size(); ++k) {
      LStmt s = stmt(*list[k]);
      out_.stmts[static_cast<size_t>(first) + k] = std::move(s);
    }
    return {first, static_cast<int32_t>(list.size())};
  }

  LStmt stmt(const Stmt& s) {
    LStmt out;
    out.kind = s.kind;
    out.src = &s;
    switch (s.kind) {
      case StmtKind::Assign:
        out.a = expr(s.rhs.get());
        out.target = name(s.lhs->name);
        out.element = s.lhs->kind != ExprKind::VarRef;
        if (out.element) std::tie(out.args, out.nargs) = list(s.lhs->args);
        break;
      case StmtKind::If:
        out.a = expr(s.cond.get());
        std::tie(out.first, out.count) = stmts(s.then_body);
        std::tie(out.first2, out.count2) = stmts(s.else_body);
        break;
      case StmtKind::Do:
        out.a = expr(s.lb.get());
        out.b = expr(s.ub.get());
        if (s.step) out.c = expr(s.step.get());
        out.target = name(s.loop_var);
        std::tie(out.first, out.count) = stmts(s.body);
        break;
      case StmtKind::Call: {
        auto callee = procs_.find(s.callee);
        if (callee != procs_.end()) out.callee = callee->second;
        std::vector<LActual> actuals;
        for (const ExprPtr& arg : s.call_args) {
          LActual a;
          a.by_ref = arg->kind == ExprKind::VarRef;
          if (a.by_ref)
            a.var = name(arg->name);
          else
            a.node = expr(arg.get());
          actuals.push_back(a);
        }
        out.actuals = static_cast<int32_t>(out_.actuals.size());
        out.nactuals = static_cast<int32_t>(actuals.size());
        out_.actuals.insert(out_.actuals.end(), actuals.begin(), actuals.end());
        break;
      }
      case StmtKind::Distribute:
      case StmtKind::Remap:
      case StmtKind::MarkDist:
        out.target = name(s.dist_target);
        out.to.dists = s.dist_specs;
        out.from.dists = s.from_specs;
        out.has_from = !s.from_specs.empty();
        break;
      case StmtKind::Send:
      case StmtKind::Recv:
      case StmtKind::Broadcast:
      case StmtKind::AllReduce: {
        out.target = name(s.msg_array);
        if (s.kind != StmtKind::AllReduce) out.a = expr(s.peer.get());
        std::vector<LTriplet> section;
        for (const SectionExpr& t : s.msg_section)
          section.push_back({expr(t.lb.get()), expr(t.ub.get()),
                             t.step ? expr(t.step.get()) : -1});
        out.section = static_cast<int32_t>(out_.sections.size());
        out.rank = static_cast<int32_t>(section.size());
        out_.sections.insert(out_.sections.end(), section.begin(),
                             section.end());
        if (s.reduce_op == "min") out.reduce = ReduceOp::Min;
        if (s.reduce_op == "max") out.reduce = ReduceOp::Max;
        break;
      }
      case StmtKind::Return:
      case StmtKind::Continue:
      case StmtKind::Align:
        break;
    }
    return out;
  }

  LProc& out_;
  const std::unordered_map<std::string, int32_t>& globals_;
  const std::unordered_map<std::string, int32_t>& procs_;
  std::unordered_map<std::string, int32_t> slots_;
};

}  // namespace

LoweredProgram lower_program(const SourceProgram& ast) {
  LoweredProgram out;
  std::unordered_map<std::string, int32_t> globals, procs;
  const auto add_global = [&](const std::string& n) {
    if (globals.emplace(n, static_cast<int32_t>(out.globals.size())).second)
      out.globals.push_back(n);
  };
  add_global("my$p");
  for (size_t k = 0; k < ast.procedures.size(); ++k) {
    const Procedure& proc = *ast.procedures[k];
    for (const CommonBlock& blk : proc.commons)
      for (const std::string& v : blk.vars) add_global(v);
    // The first of two same-named procedures is the one a CALL reaches.
    procs.emplace(proc.name, static_cast<int32_t>(k));
    if (proc.is_program && out.main < 0) out.main = static_cast<int32_t>(k);
  }
  out.procs.resize(ast.procedures.size());
  for (size_t k = 0; k < ast.procedures.size(); ++k)
    ProcLowering(*ast.procedures[k], out.procs[k], globals, procs);
  return out;
}

}  // namespace fortd
