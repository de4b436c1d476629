#include "runtime/eval.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "codegen/distribution.hpp"

namespace fortd {

// ---------------------------------------------------------------------------
// ArrayStorage
// ---------------------------------------------------------------------------

int64_t ArrayStorage::flat_index(const std::vector<int64_t>& point) const {
  if (point.size() != bounds.size())
    throw std::runtime_error("rank mismatch indexing array '" + name + "'");
  int64_t idx = 0;
  for (size_t d = 0; d < bounds.size(); ++d) {
    auto [lb, ub] = bounds[d];
    if (point[d] < lb || point[d] > ub)
      throw std::runtime_error(
          "subscript out of bounds: " + name + " dim " + std::to_string(d + 1) +
          " index " + std::to_string(point[d]) + " not in [" +
          std::to_string(lb) + "," + std::to_string(ub) + "]");
    idx = idx * (ub - lb + 1) + (point[d] - lb);
  }
  return idx;
}

int64_t ArrayStorage::size() const {
  int64_t n = 1;
  for (auto [lb, ub] : bounds) n *= (ub - lb + 1);
  return n;
}

// ---------------------------------------------------------------------------
// EvalCore
// ---------------------------------------------------------------------------

EvalCore::EvalCore(const SourceProgram& ast, int my_p, int n_procs)
    : ast_(ast), my_p_(my_p), n_procs_(n_procs) {
  auto cell = std::make_shared<Value>(Value::of_int(my_p));
  globals_.scalars["my$p"] = std::move(cell);
}

ArrayStorage* EvalCore::array_by_uid(int uid) const {
  for (const auto& [name, arr] : globals_.arrays)
    if (arr->uid == uid) return arr.get();
  for (const auto& [name, arr] : main_frame_.arrays)
    if (arr->uid == uid) return arr.get();
  return nullptr;
}

const DecompSpec* EvalCore::registry_spec(const ArrayStorage* storage) const {
  auto it = registry_.find(storage);
  return it == registry_.end() ? nullptr : &it->second;
}

Frame EvalCore::make_frame(const Procedure& proc, Frame* caller,
                           const std::vector<ExprPtr>* actuals) {
  Frame frame;
  // PARAMETER constants.
  for (const auto& pc : proc.params) {
    Value v = eval(*pc.value, frame);
    frame.scalars[pc.name] = std::make_shared<Value>(v);
  }
  // Bind formals by reference.
  if (actuals) {
    for (size_t f = 0; f < proc.formals.size() && f < actuals->size(); ++f) {
      const Expr& a = *(*actuals)[f];
      const std::string& formal = proc.formals[f];
      if (a.kind == ExprKind::VarRef && caller) {
        auto fit = caller->arrays.find(a.name);
        if (fit != caller->arrays.end()) {
          frame.arrays[formal] = fit->second;
          continue;
        }
        auto git = globals_.arrays.find(a.name);
        if (git != globals_.arrays.end()) {
          frame.arrays[formal] = git->second;
          continue;
        }
        // Scalar by reference: share (or create) the caller's cell.
        ScalarCell cell;
        auto sit = caller->scalars.find(a.name);
        if (sit != caller->scalars.end()) {
          cell = sit->second;
        } else {
          auto gsit = globals_.scalars.find(a.name);
          if (gsit != globals_.scalars.end()) {
            cell = gsit->second;
          } else {
            cell = std::make_shared<Value>(Value::of_int(0));
            caller->scalars[a.name] = cell;
          }
        }
        frame.scalars[formal] = std::move(cell);
        continue;
      }
      // Expression actual: copy-in only.
      Value v = caller ? eval(a, *caller) : Value::of_int(0);
      frame.scalars[formal] = std::make_shared<Value>(v);
    }
  }
  // Common-block variables alias the per-processor globals.
  std::map<std::string, bool> in_common;
  for (const auto& blk : proc.commons)
    for (const auto& v : blk.vars) in_common[v] = true;

  // Allocate declared locals (skip already bound formals).
  for (const auto& decl : proc.decls) {
    if (decl.is_decomposition) continue;
    if (frame.arrays.count(decl.name) || frame.scalars.count(decl.name))
      continue;
    if (decl.dims.empty()) {
      if (in_common.count(decl.name)) {
        if (!globals_.scalars.count(decl.name))
          globals_.scalars[decl.name] = std::make_shared<Value>(
              decl.type == ElemType::Real ? Value::of_real(0.0)
                                          : Value::of_int(0));
        frame.scalars[decl.name] = globals_.scalars[decl.name];
      } else {
        frame.scalars[decl.name] = std::make_shared<Value>(
            decl.type == ElemType::Real ? Value::of_real(0.0)
                                        : Value::of_int(0));
      }
      continue;
    }
    // Array: evaluate bounds (may reference params/formals — Fig. 14
    // parameterized overlaps).
    std::vector<std::pair<int64_t, int64_t>> bounds;
    for (const auto& dim : decl.dims) {
      int64_t lb = dim.lb ? eval(*dim.lb, frame).as_int() : 1;
      int64_t ub = eval(*dim.ub, frame).as_int();
      bounds.emplace_back(lb, ub);
    }
    if (in_common.count(decl.name)) {
      if (!globals_.arrays.count(decl.name)) {
        auto arr = std::make_shared<ArrayStorage>();
        arr->uid = next_uid_++;
        arr->name = decl.name;
        arr->type = decl.type;
        arr->bounds = bounds;
        arr->data.assign(static_cast<size_t>(arr->size()), 0.0);
        globals_.arrays[decl.name] = std::move(arr);
      }
      frame.arrays[decl.name] = globals_.arrays[decl.name];
    } else {
      auto arr = std::make_shared<ArrayStorage>();
      arr->uid = next_uid_++;
      arr->name = decl.name;
      arr->type = decl.type;
      arr->bounds = std::move(bounds);
      arr->data.assign(static_cast<size_t>(arr->size()), 0.0);
      frame.arrays[decl.name] = std::move(arr);
    }
  }
  return frame;
}

void EvalCore::run() {
  const Procedure* main = nullptr;
  for (const auto& p : ast_.procedures)
    if (p->is_program) {
      main = p.get();
      break;
    }
  if (!main) throw std::runtime_error("SPMD program has no main PROGRAM");
  main_frame_ = make_frame(*main, nullptr, nullptr);
  exec_stmts(main->body, main_frame_);
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

void EvalCore::exec_stmts(const std::vector<StmtPtr>& stmts, Frame& frame) {
  for (const auto& s : stmts) {
    if (returning_) return;
    exec_stmt(*s, frame);
  }
}

void EvalCore::exec_stmt(const Stmt& s, Frame& frame) {
  switch (s.kind) {
    case StmtKind::Assign: {
      Value v = eval(*s.rhs, frame);
      if (s.lhs->kind == ExprKind::VarRef) {
        Value* cell = scalar_lvalue(s.lhs->name, frame);
        *cell = v;
      } else {
        ArrayStorage* arr = array_of(s.lhs->name, frame);
        auto point = eval_point(s.lhs->args, frame);
        arr->set(point, v.as_real());
      }
      break;
    }
    case StmtKind::If: {
      charge_guard();
      if (eval(*s.cond, frame).truthy())
        exec_stmts(s.then_body, frame);
      else
        exec_stmts(s.else_body, frame);
      break;
    }
    case StmtKind::Do: {
      int64_t lb = eval(*s.lb, frame).as_int();
      int64_t ub = eval(*s.ub, frame).as_int();
      int64_t step = s.step ? eval(*s.step, frame).as_int() : 1;
      if (step == 0) throw std::runtime_error("DO step is zero");
      Value* var = scalar_lvalue(s.loop_var, frame);
      for (int64_t i = lb; step > 0 ? i <= ub : i >= ub; i += step) {
        *var = Value::of_int(i);
        charge_loop_iteration();
        ++stats_.iterations;
        exec_stmts(s.body, frame);
        if (returning_) break;
      }
      break;
    }
    case StmtKind::Call:
      exec_call(s, frame);
      break;
    case StmtKind::Return:
      returning_ = true;
      break;
    case StmtKind::Continue:
      break;
    case StmtKind::Align:
      break;
    case StmtKind::Distribute: {
      // Run-time redistribution: the mapping library moves data unless
      // this is the array's first (initial) distribution.
      ArrayStorage* arr = array_of(s.dist_target, frame);
      DecompSpec to;
      to.dists = s.dist_specs;
      auto it = registry_.find(arr);
      if (it == registry_.end()) {
        apply_redistribution(s, arr, nullptr, to);
      } else if (!(it->second == to)) {
        DecompSpec from = it->second;
        apply_redistribution(s, arr, &from, to);
      }
      break;
    }
    case StmtKind::Send:
      exec_send(s, frame);
      break;
    case StmtKind::Recv:
      exec_recv(s, frame);
      break;
    case StmtKind::Broadcast:
      exec_broadcast(s, frame);
      break;
    case StmtKind::Remap: {
      ArrayStorage* arr = array_of(s.dist_target, frame);
      DecompSpec to_spec;
      to_spec.dists = s.dist_specs;
      if (s.from_specs.empty()) {
        apply_redistribution(s, arr, nullptr, to_spec);
        break;
      }
      DecompSpec from_spec;
      from_spec.dists = s.from_specs;
      apply_redistribution(s, arr, &from_spec, to_spec);
      break;
    }
    case StmtKind::MarkDist: {
      ArrayStorage* arr = array_of(s.dist_target, frame);
      DecompSpec spec;
      spec.dists = s.dist_specs;
      registry_[arr] = std::move(spec);
      break;
    }
    case StmtKind::AllReduce:
      exec_allreduce(s, frame);
      break;
  }
}

void EvalCore::exec_call(const Stmt& s, Frame& frame) {
  const Procedure* callee = ast_.find(s.callee);
  if (!callee)
    throw std::runtime_error("call to unknown procedure '" + s.callee + "'");
  charge_call();
  // Fortran D scoping: decomposition changes in the callee are undone on
  // return — including the data motion of the restoring remap.
  auto saved_registry = registry_;
  Frame inner = make_frame(*callee, &frame, &s.call_args);
  bool saved_return = returning_;
  returning_ = false;
  exec_stmts(callee->body, inner);
  returning_ = saved_return;
  for (const auto& [arr, spec] : saved_registry) {
    auto it = registry_.find(arr);
    if (it != registry_.end() && !(it->second == spec)) {
      DecompSpec from = it->second;
      apply_redistribution(s, const_cast<ArrayStorage*>(arr), &from, spec);
    }
  }
  registry_ = std::move(saved_registry);
}

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------

std::vector<double> EvalCore::pack_section(ArrayStorage* arr,
                                           const Rsd& section) {
  std::vector<double> payload;
  for (const auto& point : section.enumerate())
    payload.push_back(arr->get(point));
  return payload;
}

void EvalCore::unpack_section(ArrayStorage* arr, const Rsd& section,
                              const std::vector<double>& payload,
                              const std::string& what) {
  auto points = section.enumerate();
  if (payload.size() != points.size())
    throw std::runtime_error("message size mismatch on " + what + ": sent " +
                             std::to_string(payload.size()) + " expected " +
                             std::to_string(points.size()));
  for (size_t i = 0; i < points.size(); ++i) arr->set(points[i], payload[i]);
}

void EvalCore::store_bcast_scalar(Value* cell, double v) {
  if (cell->is_int && v == std::floor(v))
    *cell = Value::of_int(static_cast<int64_t>(v));
  else
    *cell = Value::of_real(v);
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

Value* EvalCore::scalar_lvalue(const std::string& name, Frame& frame) {
  auto it = frame.scalars.find(name);
  if (it != frame.scalars.end()) return it->second.get();
  auto git = globals_.scalars.find(name);
  if (git != globals_.scalars.end()) return git->second.get();
  // Implicit local (loop variables, compiler temporaries).
  auto cell = std::make_shared<Value>(Value::of_int(0));
  Value* raw = cell.get();
  frame.scalars[name] = std::move(cell);
  return raw;
}

ArrayStorage* EvalCore::array_of(const std::string& name, Frame& frame) {
  auto it = frame.arrays.find(name);
  if (it != frame.arrays.end()) return it->second.get();
  auto git = globals_.arrays.find(name);
  if (git != globals_.arrays.end()) return git->second.get();
  throw std::runtime_error("reference to unknown array '" + name + "'");
}

std::vector<int64_t> EvalCore::eval_point(const std::vector<ExprPtr>& subs,
                                          Frame& frame) {
  std::vector<int64_t> point;
  point.reserve(subs.size());
  for (const auto& s : subs) point.push_back(eval(*s, frame).as_int());
  return point;
}

Rsd EvalCore::eval_section(const std::vector<SectionExpr>& sec, Frame& frame) {
  std::vector<Triplet> dims;
  for (const auto& t : sec) {
    int64_t lb = eval(*t.lb, frame).as_int();
    int64_t ub = eval(*t.ub, frame).as_int();
    int64_t step = t.step ? eval(*t.step, frame).as_int() : 1;
    dims.emplace_back(lb, ub, step);
  }
  return Rsd(std::move(dims));
}

Value EvalCore::eval_intrinsic(const Expr& e, Frame& frame) {
  auto arg = [&](size_t i) { return eval(*e.args[i], frame); };
  const std::string& n = e.name;
  if (n == "myproc") return Value::of_int(my_p_);
  if (n == "min") {
    Value v = arg(0);
    for (size_t i = 1; i < e.args.size(); ++i) {
      Value w = arg(i);
      if (v.is_int && w.is_int)
        v = Value::of_int(std::min(v.i, w.i));
      else
        v = Value::of_real(std::min(v.as_real(), w.as_real()));
    }
    return v;
  }
  if (n == "max") {
    Value v = arg(0);
    for (size_t i = 1; i < e.args.size(); ++i) {
      Value w = arg(i);
      if (v.is_int && w.is_int)
        v = Value::of_int(std::max(v.i, w.i));
      else
        v = Value::of_real(std::max(v.as_real(), w.as_real()));
    }
    return v;
  }
  if (n == "modp") {
    int64_t a = arg(0).as_int(), m = arg(1).as_int();
    int64_t r = a % m;
    return Value::of_int(r < 0 ? r + m : r);
  }
  if (n == "mod") return Value::of_int(arg(0).as_int() % arg(1).as_int());
  if (n == "abs") {
    Value v = arg(0);
    return v.is_int ? Value::of_int(std::abs(v.i))
                    : Value::of_real(std::fabs(v.d));
  }
  if (n == "sqrt") return Value::of_real(std::sqrt(arg(0).as_real()));
  if (n == "f") {
    // The paper's unspecified F(...) — an arbitrary elementwise function.
    return Value::of_real(0.5 * arg(0).as_real() + 1.0);
  }
  if (n.rfind("owner$", 0) == 0) {
    std::string array = n.substr(6);
    ArrayStorage* arr = array_of(array, frame);
    auto it = registry_.find(arr);
    DecompSpec spec;
    if (it != registry_.end()) spec = it->second;
    ArrayDistribution ad(array, spec, arr->bounds, n_procs_);
    auto point = eval_point(e.args, frame);
    return Value::of_int(ad.owner_of(point));
  }
  throw std::runtime_error("unknown intrinsic function '" + n + "'");
}

Value EvalCore::eval(const Expr& e, Frame& frame) {
  switch (e.kind) {
    case ExprKind::IntLit:
      return Value::of_int(e.int_val);
    case ExprKind::RealLit:
      return Value::of_real(e.real_val);
    case ExprKind::VarRef:
      return *scalar_lvalue(e.name, frame);
    case ExprKind::ArrayRef: {
      ArrayStorage* arr = array_of(e.name, frame);
      auto point = eval_point(e.args, frame);
      double v = arr->get(point);
      return arr->type == ElemType::Integer
                 ? Value::of_int(static_cast<int64_t>(v))
                 : Value::of_real(v);
    }
    case ExprKind::FuncCall: {
      charge_flop();
      ++stats_.flops;
      return eval_intrinsic(e, frame);
    }
    case ExprKind::Unary: {
      Value v = eval(*e.args[0], frame);
      if (e.un_op == UnOp::Neg)
        return v.is_int ? Value::of_int(-v.i) : Value::of_real(-v.d);
      return Value::of_int(v.truthy() ? 0 : 1);
    }
    case ExprKind::Binary: {
      Value l = eval(*e.args[0], frame);
      Value r = eval(*e.args[1], frame);
      charge_flop();
      ++stats_.flops;
      const bool ii = l.is_int && r.is_int;
      switch (e.bin_op) {
        case BinOp::Add:
          return ii ? Value::of_int(l.i + r.i)
                    : Value::of_real(l.as_real() + r.as_real());
        case BinOp::Sub:
          return ii ? Value::of_int(l.i - r.i)
                    : Value::of_real(l.as_real() - r.as_real());
        case BinOp::Mul:
          return ii ? Value::of_int(l.i * r.i)
                    : Value::of_real(l.as_real() * r.as_real());
        case BinOp::Div:
          if (ii) {
            if (r.i == 0) throw std::runtime_error("integer division by zero");
            return Value::of_int(l.i / r.i);
          }
          return Value::of_real(l.as_real() / r.as_real());
        case BinOp::Eq:
          return Value::of_int(ii ? l.i == r.i : l.as_real() == r.as_real());
        case BinOp::Ne:
          return Value::of_int(ii ? l.i != r.i : l.as_real() != r.as_real());
        case BinOp::Lt:
          return Value::of_int(ii ? l.i < r.i : l.as_real() < r.as_real());
        case BinOp::Le:
          return Value::of_int(ii ? l.i <= r.i : l.as_real() <= r.as_real());
        case BinOp::Gt:
          return Value::of_int(ii ? l.i > r.i : l.as_real() > r.as_real());
        case BinOp::Ge:
          return Value::of_int(ii ? l.i >= r.i : l.as_real() >= r.as_real());
        case BinOp::And:
          return Value::of_int(l.truthy() && r.truthy());
        case BinOp::Or:
          return Value::of_int(l.truthy() || r.truthy());
      }
      return Value::of_int(0);
    }
  }
  return Value::of_int(0);
}

// ---------------------------------------------------------------------------
// Result gathering
// ---------------------------------------------------------------------------

std::vector<double> gather_array(const std::vector<const EvalCore*>& contexts,
                                 const std::string& array,
                                 const DecompSpec* spec) {
  if (contexts.empty())
    throw std::runtime_error("gather: no execution contexts");
  const EvalCore& p0 = *contexts[0];
  auto it = p0.main_frame().arrays.find(array);
  if (it == p0.main_frame().arrays.end())
    throw std::runtime_error("gather: unknown main-program array '" + array +
                             "'");
  const ArrayStorage& proto = *it->second;
  if (!spec) spec = p0.registry_spec(&proto);

  Rsd full = Rsd::dense(proto.bounds);
  std::vector<double> out;
  out.reserve(static_cast<size_t>(proto.size()));
  std::optional<ArrayDistribution> dist;
  if (spec)
    dist.emplace(array, *spec, proto.bounds,
                 static_cast<int>(contexts.size()));

  for (const auto& point : full.enumerate()) {
    if (dist && !dist->replicated_p()) {
      int owner = dist->owner_of(point);
      const ArrayStorage* arr =
          contexts[static_cast<size_t>(owner)]->array_by_uid(proto.uid);
      out.push_back(arr ? arr->get(point) : 0.0);
    } else {
      out.push_back(proto.get(point));
    }
  }
  return out;
}

}  // namespace fortd
