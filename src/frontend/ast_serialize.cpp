#include "frontend/ast_serialize.hpp"

namespace fortd {

void write_loc(BinaryWriter& w, const SourceLoc& loc) {
  if (!w.positions()) return;
  w.i64(loc.line);
  w.i64(loc.col);
}

SourceLoc read_loc(BinaryReader& r) {
  SourceLoc loc;
  loc.line = static_cast<int>(r.i64());
  loc.col = static_cast<int>(r.i64());
  return loc;
}

namespace {

void write_int_vec(BinaryWriter& w, const std::vector<int>& v) {
  w.count(v.size());
  for (int x : v) w.i64(x);
}

std::vector<int> read_int_vec(BinaryReader& r) {
  std::vector<int> v(r.count());
  for (int& x : v) x = static_cast<int>(r.i64());
  return v;
}

}  // namespace

void write_dist_spec(BinaryWriter& w, const DistSpec& d) {
  w.u8(static_cast<uint8_t>(d.kind));
  w.i64(d.block_size);
}

DistSpec read_dist_spec(BinaryReader& r) {
  DistSpec d;
  uint8_t kind = r.u8();
  if (kind > static_cast<uint8_t>(DistKind::BlockCyclic)) {
    r.fail();
    return d;
  }
  d.kind = static_cast<DistKind>(kind);
  d.block_size = static_cast<int>(r.i64());
  return d;
}

void write_dist_specs(BinaryWriter& w, const std::vector<DistSpec>& v) {
  w.count(v.size());
  for (const DistSpec& d : v) write_dist_spec(w, d);
}

std::vector<DistSpec> read_dist_specs(BinaryReader& r) {
  std::vector<DistSpec> v(r.count());
  for (DistSpec& d : v) d = read_dist_spec(r);
  return v;
}

void write_expr(BinaryWriter& w, const Expr& e) {
  w.u8(static_cast<uint8_t>(e.kind));
  write_loc(w, e.loc);
  switch (e.kind) {
    case ExprKind::IntLit:
      w.i64(e.int_val);
      break;
    case ExprKind::RealLit:
      w.f64(e.real_val);
      break;
    case ExprKind::VarRef:
      w.str(e.name);
      break;
    case ExprKind::ArrayRef:
    case ExprKind::FuncCall:
      w.str(e.name);
      break;
    case ExprKind::Binary:
      w.u8(static_cast<uint8_t>(e.bin_op));
      break;
    case ExprKind::Unary:
      w.u8(static_cast<uint8_t>(e.un_op));
      break;
  }
  if (e.kind != ExprKind::VarRef) {
    w.count(e.args.size());
    for (const ExprPtr& a : e.args) write_expr(w, *a);
  }
}

void write_expr_opt(BinaryWriter& w, const ExprPtr& e) {
  w.boolean(e != nullptr);
  if (e) write_expr(w, *e);
}

ExprPtr read_expr(BinaryReader& r) {
  uint8_t kind = r.u8();
  if (!r.ok() || kind > static_cast<uint8_t>(ExprKind::FuncCall)) {
    r.fail();
    return nullptr;
  }
  auto e = std::make_unique<Expr>();
  e->kind = static_cast<ExprKind>(kind);
  e->loc = read_loc(r);
  switch (e->kind) {
    case ExprKind::IntLit:
      e->int_val = r.i64();
      break;
    case ExprKind::RealLit:
      e->real_val = r.f64();
      break;
    case ExprKind::VarRef:
    case ExprKind::ArrayRef:
    case ExprKind::FuncCall:
      e->name = r.str();
      break;
    case ExprKind::Binary:
      e->bin_op = static_cast<BinOp>(r.u8());
      break;
    case ExprKind::Unary:
      e->un_op = static_cast<UnOp>(r.u8());
      break;
  }
  if (e->kind != ExprKind::VarRef) {
    size_t n = r.count();
    e->args.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ExprPtr a = read_expr(r);
      if (!a) return nullptr;
      e->args.push_back(std::move(a));
    }
  }
  return r.ok() ? std::move(e) : nullptr;
}

ExprPtr read_expr_opt(BinaryReader& r) {
  if (!r.boolean()) return nullptr;
  return read_expr(r);
}

void write_section_expr(BinaryWriter& w, const SectionExpr& s) {
  write_expr_opt(w, s.lb);
  write_expr_opt(w, s.ub);
  write_expr_opt(w, s.step);
}

SectionExpr read_section_expr(BinaryReader& r) {
  SectionExpr s;
  s.lb = read_expr_opt(r);
  s.ub = read_expr_opt(r);
  s.step = read_expr_opt(r);
  return s;
}

void write_stmt(BinaryWriter& w, const Stmt& s) {
  w.u8(static_cast<uint8_t>(s.kind));
  w.i64(s.id);
  write_loc(w, s.loc);
  write_expr_opt(w, s.lhs);
  write_expr_opt(w, s.rhs);
  write_expr_opt(w, s.cond);
  write_stmts(w, s.then_body);
  write_stmts(w, s.else_body);
  w.str(s.loop_var);
  write_expr_opt(w, s.lb);
  write_expr_opt(w, s.ub);
  write_expr_opt(w, s.step);
  write_stmts(w, s.body);
  w.str(s.callee);
  w.count(s.call_args.size());
  for (const ExprPtr& a : s.call_args) write_expr(w, *a);
  w.str(s.align_array);
  w.str(s.align_target);
  write_int_vec(w, s.align_perm);
  w.str(s.dist_target);
  write_dist_specs(w, s.dist_specs);
  write_dist_specs(w, s.from_specs);
  w.str(s.msg_array);
  w.count(s.msg_section.size());
  for (const SectionExpr& sec : s.msg_section) write_section_expr(w, sec);
  write_expr_opt(w, s.peer);
  w.str(s.reduce_op);
}

void write_stmts(BinaryWriter& w, const std::vector<StmtPtr>& stmts) {
  w.count(stmts.size());
  for (const StmtPtr& s : stmts) write_stmt(w, *s);
}

StmtPtr read_stmt(BinaryReader& r) {
  uint8_t kind = r.u8();
  if (!r.ok() || kind > static_cast<uint8_t>(StmtKind::AllReduce)) {
    r.fail();
    return nullptr;
  }
  auto s = std::make_unique<Stmt>();
  s->kind = static_cast<StmtKind>(kind);
  s->id = static_cast<int>(r.i64());
  s->loc = read_loc(r);
  s->lhs = read_expr_opt(r);
  s->rhs = read_expr_opt(r);
  s->cond = read_expr_opt(r);
  s->then_body = read_stmts(r);
  s->else_body = read_stmts(r);
  s->loop_var = r.str();
  s->lb = read_expr_opt(r);
  s->ub = read_expr_opt(r);
  s->step = read_expr_opt(r);
  s->body = read_stmts(r);
  s->callee = r.str();
  size_t n_args = r.count();
  s->call_args.reserve(n_args);
  for (size_t i = 0; i < n_args; ++i) {
    ExprPtr a = read_expr(r);
    if (!a) return nullptr;
    s->call_args.push_back(std::move(a));
  }
  s->align_array = r.str();
  s->align_target = r.str();
  s->align_perm = read_int_vec(r);
  s->dist_target = r.str();
  s->dist_specs = read_dist_specs(r);
  s->from_specs = read_dist_specs(r);
  s->msg_array = r.str();
  size_t n_sec = r.count();
  s->msg_section.reserve(n_sec);
  for (size_t i = 0; i < n_sec; ++i) s->msg_section.push_back(read_section_expr(r));
  s->peer = read_expr_opt(r);
  s->reduce_op = r.str();
  return r.ok() ? std::move(s) : nullptr;
}

std::vector<StmtPtr> read_stmts(BinaryReader& r) {
  size_t n = r.count();
  std::vector<StmtPtr> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    StmtPtr s = read_stmt(r);
    if (!s) return {};
    out.push_back(std::move(s));
  }
  return out;
}

void write_procedure(BinaryWriter& w, const Procedure& proc) {
  w.str(proc.name);
  w.boolean(proc.is_program);
  write_str_vec(w, proc.formals);
  w.count(proc.decls.size());
  for (const VarDecl& d : proc.decls) {
    w.str(d.name);
    w.u8(static_cast<uint8_t>(d.type));
    w.count(d.dims.size());
    for (const ArrayDim& dim : d.dims) {
      write_expr_opt(w, dim.lb);
      write_expr_opt(w, dim.ub);
    }
    w.boolean(d.is_decomposition);
    write_loc(w, d.loc);
  }
  w.count(proc.params.size());
  for (const ParamConst& p : proc.params) {
    w.str(p.name);
    write_expr_opt(w, p.value);
  }
  w.count(proc.commons.size());
  for (const CommonBlock& c : proc.commons) {
    w.str(c.name);
    write_str_vec(w, c.vars);
  }
  write_stmts(w, proc.body);
  w.i64(proc.next_stmt_id);
}

std::unique_ptr<Procedure> read_procedure(BinaryReader& r) {
  auto proc = std::make_unique<Procedure>();
  proc->name = r.str();
  proc->is_program = r.boolean();
  proc->formals = read_str_vec(r);
  size_t n_decls = r.count();
  proc->decls.reserve(n_decls);
  for (size_t i = 0; i < n_decls; ++i) {
    VarDecl d;
    d.name = r.str();
    uint8_t ty = r.u8();
    if (ty > static_cast<uint8_t>(ElemType::Logical)) {
      r.fail();
      return nullptr;
    }
    d.type = static_cast<ElemType>(ty);
    size_t n_dims = r.count();
    d.dims.reserve(n_dims);
    for (size_t k = 0; k < n_dims; ++k) {
      ArrayDim dim;
      dim.lb = read_expr_opt(r);
      dim.ub = read_expr_opt(r);
      d.dims.push_back(std::move(dim));
    }
    d.is_decomposition = r.boolean();
    d.loc = read_loc(r);
    proc->decls.push_back(std::move(d));
  }
  size_t n_params = r.count();
  proc->params.reserve(n_params);
  for (size_t i = 0; i < n_params; ++i) {
    ParamConst p;
    p.name = r.str();
    p.value = read_expr_opt(r);
    proc->params.push_back(std::move(p));
  }
  size_t n_commons = r.count();
  proc->commons.reserve(n_commons);
  for (size_t i = 0; i < n_commons; ++i) {
    CommonBlock c;
    c.name = r.str();
    c.vars = read_str_vec(r);
    proc->commons.push_back(std::move(c));
  }
  proc->body = read_stmts(r);
  proc->next_stmt_id = static_cast<int>(r.i64());
  return r.ok() ? std::move(proc) : nullptr;
}

}  // namespace fortd
