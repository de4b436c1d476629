#include "frontend/ast.hpp"

#include <algorithm>

namespace fortd {

// ---------------------------------------------------------------------------
// Expr
// ---------------------------------------------------------------------------

ExprPtr Expr::clone() const {
  auto c = std::make_unique<Expr>();
  c->kind = kind;
  c->loc = loc;
  c->int_val = int_val;
  c->real_val = real_val;
  c->name = name;
  c->bin_op = bin_op;
  c->un_op = un_op;
  c->args.reserve(args.size());
  for (const auto& a : args) c->args.push_back(a->clone());
  return c;
}

bool Expr::structurally_equal(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case ExprKind::IntLit:
      if (int_val != other.int_val) return false;
      break;
    case ExprKind::RealLit:
      if (real_val != other.real_val) return false;
      break;
    case ExprKind::VarRef:
    case ExprKind::ArrayRef:
    case ExprKind::FuncCall:
      if (name != other.name) return false;
      break;
    case ExprKind::Binary:
      if (bin_op != other.bin_op) return false;
      break;
    case ExprKind::Unary:
      if (un_op != other.un_op) return false;
      break;
  }
  if (args.size() != other.args.size()) return false;
  for (size_t i = 0; i < args.size(); ++i)
    if (!args[i]->structurally_equal(*other.args[i])) return false;
  return true;
}

ExprPtr Expr::make_int(long long v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::IntLit;
  e->int_val = v;
  e->loc = loc;
  return e;
}

ExprPtr Expr::make_real(double v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::RealLit;
  e->real_val = v;
  e->loc = loc;
  return e;
}

ExprPtr Expr::make_var(std::string name, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::VarRef;
  e->name = std::move(name);
  e->loc = loc;
  return e;
}

ExprPtr Expr::make_array_ref(std::string name, std::vector<ExprPtr> subs,
                             SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::ArrayRef;
  e->name = std::move(name);
  e->args = std::move(subs);
  e->loc = loc;
  return e;
}

ExprPtr Expr::make_binary(BinOp op, ExprPtr l, ExprPtr r, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Binary;
  e->bin_op = op;
  e->args.push_back(std::move(l));
  e->args.push_back(std::move(r));
  e->loc = loc;
  return e;
}

ExprPtr Expr::make_unary(UnOp op, ExprPtr operand, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Unary;
  e->un_op = op;
  e->args.push_back(std::move(operand));
  e->loc = loc;
  return e;
}

ExprPtr Expr::make_call(std::string name, std::vector<ExprPtr> args,
                        SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::FuncCall;
  e->name = std::move(name);
  e->args = std::move(args);
  e->loc = loc;
  return e;
}

SectionExpr SectionExpr::clone() const {
  SectionExpr s;
  s.lb = lb ? lb->clone() : nullptr;
  s.ub = ub ? ub->clone() : nullptr;
  s.step = step ? step->clone() : nullptr;
  return s;
}

std::string DistSpec::str() const {
  switch (kind) {
    case DistKind::None: return ":";
    case DistKind::Block: return "BLOCK";
    case DistKind::Cyclic: return "CYCLIC";
    case DistKind::BlockCyclic:
      return "BLOCK_CYCLIC(" + std::to_string(block_size) + ")";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Stmt
// ---------------------------------------------------------------------------

StmtPtr Stmt::clone() const {
  auto c = std::make_unique<Stmt>();
  c->kind = kind;
  c->id = id;
  c->loc = loc;
  if (lhs) c->lhs = lhs->clone();
  if (rhs) c->rhs = rhs->clone();
  if (cond) c->cond = cond->clone();
  c->then_body = clone_stmts(then_body);
  c->else_body = clone_stmts(else_body);
  c->loop_var = loop_var;
  if (lb) c->lb = lb->clone();
  if (ub) c->ub = ub->clone();
  if (step) c->step = step->clone();
  c->body = clone_stmts(body);
  c->callee = callee;
  c->call_args.reserve(call_args.size());
  for (const auto& a : call_args) c->call_args.push_back(a->clone());
  c->align_array = align_array;
  c->align_target = align_target;
  c->align_perm = align_perm;
  c->dist_target = dist_target;
  c->dist_specs = dist_specs;
  c->from_specs = from_specs;
  c->msg_array = msg_array;
  c->msg_section.reserve(msg_section.size());
  for (const auto& s : msg_section) c->msg_section.push_back(s.clone());
  if (peer) c->peer = peer->clone();
  c->reduce_op = reduce_op;
  return c;
}

StmtPtr Stmt::make_assign(ExprPtr lhs, ExprPtr rhs, SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::Assign;
  s->lhs = std::move(lhs);
  s->rhs = std::move(rhs);
  s->loc = loc;
  return s;
}

StmtPtr Stmt::make_if(ExprPtr cond, std::vector<StmtPtr> then_body,
                      std::vector<StmtPtr> else_body, SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::If;
  s->cond = std::move(cond);
  s->then_body = std::move(then_body);
  s->else_body = std::move(else_body);
  s->loc = loc;
  return s;
}

StmtPtr Stmt::make_do(std::string var, ExprPtr lb, ExprPtr ub, ExprPtr step,
                      std::vector<StmtPtr> body, SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::Do;
  s->loop_var = std::move(var);
  s->lb = std::move(lb);
  s->ub = std::move(ub);
  s->step = std::move(step);
  s->body = std::move(body);
  s->loc = loc;
  return s;
}

StmtPtr Stmt::make_call(std::string callee, std::vector<ExprPtr> args,
                        SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::Call;
  s->callee = std::move(callee);
  s->call_args = std::move(args);
  s->loc = loc;
  return s;
}

StmtPtr Stmt::make_send(std::string array, std::vector<SectionExpr> section,
                        ExprPtr dest) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::Send;
  s->msg_array = std::move(array);
  s->msg_section = std::move(section);
  s->peer = std::move(dest);
  return s;
}

StmtPtr Stmt::make_recv(std::string array, std::vector<SectionExpr> section,
                        ExprPtr src) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::Recv;
  s->msg_array = std::move(array);
  s->msg_section = std::move(section);
  s->peer = std::move(src);
  return s;
}

StmtPtr Stmt::make_broadcast(std::string array, std::vector<SectionExpr> section,
                             ExprPtr root) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::Broadcast;
  s->msg_array = std::move(array);
  s->msg_section = std::move(section);
  s->peer = std::move(root);
  return s;
}

std::vector<StmtPtr> clone_stmts(const std::vector<StmtPtr>& stmts) {
  std::vector<StmtPtr> out;
  out.reserve(stmts.size());
  for (const auto& s : stmts) out.push_back(s->clone());
  return out;
}

// ---------------------------------------------------------------------------
// Declarations / procedures
// ---------------------------------------------------------------------------

ArrayDim ArrayDim::clone() const {
  ArrayDim d;
  d.lb = lb ? lb->clone() : nullptr;
  d.ub = ub ? ub->clone() : nullptr;
  return d;
}

VarDecl VarDecl::clone() const {
  VarDecl v;
  v.name = name;
  v.type = type;
  v.dims.reserve(dims.size());
  for (const auto& d : dims) v.dims.push_back(d.clone());
  v.is_decomposition = is_decomposition;
  v.loc = loc;
  return v;
}

const VarDecl* Procedure::find_decl(const std::string& name) const {
  for (const auto& d : decls)
    if (d.name == name) return &d;
  return nullptr;
}

VarDecl* Procedure::find_decl(const std::string& name) {
  for (auto& d : decls)
    if (d.name == name) return &d;
  return nullptr;
}

bool Procedure::is_formal(const std::string& name) const {
  return formal_index(name) >= 0;
}

int Procedure::formal_index(const std::string& name) const {
  auto it = std::find(formals.begin(), formals.end(), name);
  return it == formals.end() ? -1 : static_cast<int>(it - formals.begin());
}

std::unique_ptr<Procedure> Procedure::clone_as(const std::string& new_name) const {
  auto p = std::make_unique<Procedure>();
  p->name = new_name;
  p->is_program = is_program;
  p->formals = formals;
  p->decls.reserve(decls.size());
  for (const auto& d : decls) p->decls.push_back(d.clone());
  p->params.reserve(params.size());
  for (const auto& pc : params) p->params.push_back({pc.name, pc.value->clone()});
  p->commons = commons;
  p->body = clone_stmts(body);
  p->next_stmt_id = next_stmt_id;
  return p;
}

Procedure* SourceProgram::find(const std::string& name) {
  for (auto& p : procedures)
    if (p->name == name) return p.get();
  return nullptr;
}

const Procedure* SourceProgram::find(const std::string& name) const {
  for (const auto& p : procedures)
    if (p->name == name) return p.get();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Walkers
// ---------------------------------------------------------------------------

template <typename ExprT, typename Fn>
static void walk_expr_impl(ExprT& e, const Fn& fn) {
  fn(e);
  for (auto& a : e.args) walk_expr_impl(*a, fn);
}

void walk_expr(Expr& e, const std::function<void(Expr&)>& fn) {
  walk_expr_impl(e, fn);
}

void walk_expr(const Expr& e, const std::function<void(const Expr&)>& fn) {
  walk_expr_impl(e, fn);
}

template <typename StmtsT, typename Fn>
static void walk_stmts_impl(StmtsT& stmts, const Fn& fn) {
  for (auto& s : stmts) {
    fn(*s);
    walk_stmts_impl(s->then_body, fn);
    walk_stmts_impl(s->else_body, fn);
    walk_stmts_impl(s->body, fn);
  }
}

void walk_stmts(std::vector<StmtPtr>& stmts, const std::function<void(Stmt&)>& fn) {
  walk_stmts_impl(stmts, fn);
}

void walk_stmts(const std::vector<StmtPtr>& stmts,
                const std::function<void(const Stmt&)>& fn) {
  walk_stmts_impl(stmts, fn);
}

template <typename StmtT, typename ExprFn>
static void for_each_expr_impl(StmtT& s, const ExprFn& fn) {
  auto visit = [&](auto& e) {
    if (e) walk_expr_impl(*e, fn);
  };
  visit(s.lhs);
  visit(s.rhs);
  visit(s.cond);
  visit(s.lb);
  visit(s.ub);
  visit(s.step);
  visit(s.peer);
  for (auto& a : s.call_args) visit(a);
  for (auto& sec : s.msg_section) {
    visit(sec.lb);
    visit(sec.ub);
    visit(sec.step);
  }
}

void for_each_expr(Stmt& s, const std::function<void(Expr&)>& fn) {
  for_each_expr_impl(s, fn);
}

void for_each_expr(const Stmt& s, const std::function<void(const Expr&)>& fn) {
  for_each_expr_impl(s, fn);
}

}  // namespace fortd
