#include "runtime/eval.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fortd {

// ---------------------------------------------------------------------------
// ArrayStorage
// ---------------------------------------------------------------------------

void ArrayStorage::rank_mismatch() const {
  throw std::runtime_error("rank mismatch indexing array '" + name + "'");
}

void ArrayStorage::out_of_bounds(size_t d, int64_t index) const {
  throw std::runtime_error(
      "subscript out of bounds: " + name + " dim " + std::to_string(d + 1) +
      " index " + std::to_string(index) + " not in [" +
      std::to_string(bounds[d].first) + "," +
      std::to_string(bounds[d].second) + "]");
}

int64_t ArrayStorage::size() const {
  int64_t n = 1;
  for (auto [lb, ub] : bounds) n *= (ub - lb + 1);
  return n;
}

// ---------------------------------------------------------------------------
// EvalCore: bindings
// ---------------------------------------------------------------------------

EvalCore::EvalCore(std::shared_ptr<const LoweredProgram> program, int my_p,
                   int n_procs, const CostModel& cost)
    : my_p_(my_p),
      n_procs_(n_procs),
      cost_(cost),
      program_(std::move(program)),
      globals_(program_->globals.size()) {
  Global& myp = globals_[0];
  myp.own = Value::of_int(my_p);
  myp.scalar = &myp.own;
}

Value* EvalCore::implicit_local(Frame& frame, int32_t slot) {
  // Loop variables and compiler temporaries.
  bind_own(frame, slot, Value::of_int(0));
  return frame.slots[static_cast<size_t>(slot)].scalar;
}

ArrayStorage* EvalCore::find_array(Frame& frame, NameRef name) {
  if (ArrayStorage* arr = frame.slots[static_cast<size_t>(name.slot)].array)
    return arr;
  return name.global >= 0
             ? globals_[static_cast<size_t>(name.global)].array.get()
             : nullptr;
}

ArrayStorage* EvalCore::resolve_array(Frame& frame, NameRef name) {
  if (ArrayStorage* arr = find_array(frame, name)) return arr;
  throw std::runtime_error("reference to unknown array '" +
                           frame.proc->names[static_cast<size_t>(name.slot)] +
                           "'");
}

void EvalCore::bind_own(Frame& frame, int32_t slot, Value v) {
  Frame::Slot& s = frame.slots[static_cast<size_t>(slot)];
  s.own = v;
  s.scalar = &s.own;
}

std::unique_ptr<ArrayStorage> EvalCore::allocate(
    const std::string& name, ElemType type,
    std::vector<std::pair<int64_t, int64_t>> bounds) {
  auto arr = std::make_unique<ArrayStorage>();
  arr->uid = next_uid_++;
  arr->name = name;
  arr->type = type;
  arr->bounds = std::move(bounds);
  arr->data.assign(static_cast<size_t>(arr->size()), 0.0);
  return arr;
}

Frame EvalCore::make_frame(const LProc& proc, Frame* caller,
                           const LStmt* call) {
  Frame frame;
  frame.proc = &proc;
  frame.slots.resize(proc.names.size());
  // PARAMETER constants.
  for (const auto& [slot, value] : proc.params)
    bind_own(frame, slot, eval(frame, value));
  // Bind formals by reference.
  if (call) {
    const LActual* actuals = caller->proc->actuals.data() + call->actuals;
    const size_t n =
        std::min(proc.formals.size(), static_cast<size_t>(call->nactuals));
    for (size_t f = 0; f < n; ++f) {
      const LActual& a = actuals[f];
      const int32_t formal = proc.formals[f];
      if (!a.by_ref) {  // expression actual: copy-in only
        bind_own(frame, formal, eval(*caller, a.node));
        continue;
      }
      if (ArrayStorage* arr = find_array(*caller, a.var)) {
        frame.slots[static_cast<size_t>(formal)].array = arr;
        continue;
      }
      // Scalar by reference: share (or create) the caller's cell.
      frame.slots[static_cast<size_t>(formal)].scalar = scalar(*caller, a.var);
    }
  }
  // Allocate declared locals (skip already bound names); COMMON variables
  // alias the per-processor globals, created by the first declaration.
  for (const LDecl& d : proc.decls) {
    Frame::Slot& slot = frame.slots[static_cast<size_t>(d.name.slot)];
    if (slot.array || slot.scalar) continue;
    if (d.dims.empty()) {
      const Value zero = d.type == ElemType::Real ? Value::of_real(0.0)
                                                  : Value::of_int(0);
      if (d.common < 0) {
        bind_own(frame, d.name.slot, zero);
        continue;
      }
      Global& g = globals_[static_cast<size_t>(d.common)];
      if (!g.scalar) {
        g.own = zero;
        g.scalar = &g.own;
      }
      slot.scalar = g.scalar;
      continue;
    }
    // Array: evaluate bounds (may reference params/formals — Fig. 14
    // parameterized overlaps), also for a COMMON array that exists.
    std::vector<std::pair<int64_t, int64_t>> bounds;
    for (const auto& [lb, ub] : d.dims) {
      const int64_t lo = lb >= 0 ? eval(frame, lb).as_int() : 1;
      bounds.emplace_back(lo, eval(frame, ub).as_int());
    }
    const std::string& name = proc.names[static_cast<size_t>(d.name.slot)];
    if (d.common < 0) {
      frame.locals.push_back(allocate(name, d.type, std::move(bounds)));
      slot.array = frame.locals.back().get();
      continue;
    }
    Global& g = globals_[static_cast<size_t>(d.common)];
    if (!g.array) g.array = allocate(name, d.type, std::move(bounds));
    slot.array = g.array.get();
  }
  return frame;
}

const ArrayStorage* EvalCore::main_array(const std::string& name) const {
  if (!main_frame_.proc) return nullptr;
  const auto& names = main_frame_.proc->names;
  for (size_t k = 0; k < names.size(); ++k)
    if (names[k] == name) return main_frame_.slots[k].array;
  return nullptr;
}

const Value* EvalCore::main_scalar(const std::string& name) const {
  if (!main_frame_.proc) return nullptr;
  const auto& names = main_frame_.proc->names;
  for (size_t k = 0; k < names.size(); ++k)
    if (names[k] == name) return main_frame_.slots[k].scalar;
  return nullptr;
}

std::vector<std::string> EvalCore::main_array_names() const {
  std::vector<std::string> out;
  for (size_t k = 0; k < main_frame_.slots.size(); ++k)
    if (main_frame_.slots[k].array) out.push_back(main_frame_.proc->names[k]);
  return out;
}

const ArrayStorage* EvalCore::array_by_uid(int uid) const {
  for (const Global& g : globals_)
    if (g.array && g.array->uid == uid) return g.array.get();
  for (const Frame::Slot& s : main_frame_.slots)
    if (s.array && s.array->uid == uid) return s.array;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

void EvalCore::run() {
  if (program_->main < 0)
    throw std::runtime_error("SPMD program has no main PROGRAM");
  const LProc& main = program_->procs[static_cast<size_t>(program_->main)];
  Frame frame = make_frame(main, nullptr, nullptr);
  main_frame_ = std::move(frame);  // the cells stay where they are
  exec_range(main_frame_, main.body, main.body_len);
}

void EvalCore::exec_range(Frame& frame, int32_t first, int32_t count) {
  const LStmt* s = frame.proc->stmts.data() + first;
  for (int32_t k = 0; k < count; ++k) {
    if (returning_) return;
    exec_stmt(frame, s[k]);
  }
}

void EvalCore::exec_stmt(Frame& frame, const LStmt& s) {
  switch (s.kind) {
    case StmtKind::Assign: {
      const Value v = eval(frame, s.a);
      if (!s.element) {
        *scalar(frame, s.target) = v;
        break;
      }
      ArrayStorage* arr = array(frame, s.target);
      const int64_t idx = element_index(frame, *arr, s.args, s.nargs);
      arr->data[static_cast<size_t>(idx)] = v.as_real();
      break;
    }
    case StmtKind::If:
      stats_.clock_us += cost_.guard_us;
      if (eval(frame, s.a).truthy())
        exec_range(frame, s.first, s.count);
      else
        exec_range(frame, s.first2, s.count2);
      break;
    case StmtKind::Do: {
      const int64_t lb = eval(frame, s.a).as_int();
      const int64_t ub = eval(frame, s.b).as_int();
      const int64_t step = s.c >= 0 ? eval(frame, s.c).as_int() : 1;
      if (step == 0) throw std::runtime_error("DO step is zero");
      Value* var = scalar(frame, s.target);
      for (int64_t i = lb; step > 0 ? i <= ub : i >= ub; i += step) {
        *var = Value::of_int(i);
        stats_.clock_us += cost_.loop_overhead_us;
        ++stats_.iterations;
        exec_range(frame, s.first, s.count);
        if (returning_) break;
      }
      break;
    }
    case StmtKind::Call:
      exec_call(frame, s);
      break;
    case StmtKind::Return:
      returning_ = true;
      break;
    case StmtKind::Continue:
    case StmtKind::Align:
      break;
    case StmtKind::Distribute: {
      // Run-time redistribution: the mapping library moves data unless
      // this is the array's first (initial) distribution.
      ArrayStorage* arr = array(frame, s.target);
      if (!arr->dist)
        apply_redistribution(*s.src, arr, nullptr, &s.to);
      else if (!(*arr->dist == s.to))
        apply_redistribution(*s.src, arr, arr->dist, &s.to);
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
    case StmtKind::Remap:
      apply_redistribution(*s.src, array(frame, s.target),
                           s.has_from ? &s.from : nullptr, &s.to);
      break;
    case StmtKind::MarkDist:
      note_distribution(array(frame, s.target), &s.to);
      break;
    case StmtKind::AllReduce:
      exec_allreduce(s, frame);
      break;
  }
}

void EvalCore::exec_call(Frame& frame, const LStmt& s) {
  if (s.callee < 0)
    throw std::runtime_error("call to unknown procedure '" + s.src->callee +
                             "'");
  stats_.clock_us += cost_.call_overhead_us;
  const LProc& callee = program_->procs[static_cast<size_t>(s.callee)];
  // Fortran D scoping: decomposition changes in the callee are undone on
  // return — including the data motion of the restoring remap.
  const size_t mark = relabels_.size();
  ++call_depth_;
  Frame inner = make_frame(callee, &frame, &s);
  const bool saved_return = returning_;
  returning_ = false;
  exec_range(inner, callee.body, callee.body_len);
  returning_ = saved_return;
  restore_registry(mark, *s.src);
  --call_depth_;
}

void EvalCore::note_distribution(ArrayStorage* arr, const DecompSpec* spec) {
  if (arr->dist == spec) return;
  if (call_depth_ > 0) relabels_.push_back({arr, arr->dist});
  set_distribution(arr, spec);
}

void EvalCore::set_distribution(ArrayStorage* arr, const DecompSpec* spec) {
  arr->dist = spec;
  arr->owner = spec ? OwnerFn(*spec, arr->bounds, n_procs_) : OwnerFn();
}

void EvalCore::restore_registry(size_t mark, const Stmt& call) {
  if (relabels_.size() == mark) return;
  // Each array the callee relabeled, with its label at the call (its first
  // logged entry), in allocation order.
  std::vector<Relabel> changed(relabels_.begin() + static_cast<long>(mark),
                               relabels_.end());
  std::stable_sort(changed.begin(), changed.end(),
                   [](const Relabel& a, const Relabel& b) {
                     return a.arr->uid < b.arr->uid;
                   });
  changed.erase(std::unique(changed.begin(), changed.end(),
                            [](const Relabel& a, const Relabel& b) {
                              return a.arr == b.arr;
                            }),
                changed.end());
  for (const Relabel& r : changed)
    if (r.before && r.arr->dist && !(*r.arr->dist == *r.before))
      apply_redistribution(call, r.arr, r.arr->dist, r.before);
  // Labels the callee added go with it.
  for (const Relabel& r : changed) set_distribution(r.arr, r.before);
  relabels_.resize(mark);
}

// ---------------------------------------------------------------------------
// Message payloads
// ---------------------------------------------------------------------------

Rsd EvalCore::eval_section(const LStmt& s, Frame& frame) {
  std::vector<Triplet> dims;
  dims.reserve(static_cast<size_t>(s.rank));
  const LTriplet* t = frame.proc->sections.data() + s.section;
  for (int32_t d = 0; d < s.rank; ++d) {
    const int64_t lb = eval(frame, t[d].lb).as_int();
    const int64_t ub = eval(frame, t[d].ub).as_int();
    const int64_t step = t[d].step >= 0 ? eval(frame, t[d].step).as_int() : 1;
    dims.emplace_back(lb, ub, step);
  }
  return Rsd(std::move(dims));
}

std::vector<double> EvalCore::pack_section(const ArrayStorage& arr,
                                           const Rsd& section) {
  const auto rank = static_cast<size_t>(section.rank());
  std::vector<double> payload;
  payload.reserve(static_cast<size_t>(section.size()));
  section.for_each([&](const int64_t* point) {
    payload.push_back(
        arr.data[static_cast<size_t>(arr.flat_index(point, rank))]);
  });
  return payload;
}

void EvalCore::unpack_section(ArrayStorage& arr, const Rsd& section,
                              const std::vector<double>& payload,
                              const char* op, const Stmt& s) {
  const auto expected = static_cast<size_t>(section.size());
  if (payload.size() != expected)
    throw std::runtime_error("message size mismatch on " + std::string(op) +
                             " of " + s.msg_array + ": sent " +
                             std::to_string(payload.size()) + " expected " +
                             std::to_string(expected));
  const auto rank = static_cast<size_t>(section.rank());
  size_t k = 0;
  section.for_each([&](const int64_t* point) {
    arr.data[static_cast<size_t>(arr.flat_index(point, rank))] = payload[k++];
  });
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

int64_t EvalCore::element_index(Frame& frame, const ArrayStorage& arr,
                                int32_t args, int32_t nargs) {
  const int32_t* arg = frame.proc->args.data() + args;
  const auto rank = static_cast<size_t>(nargs);
  RankBuffer<int64_t> point(rank);
  for (size_t d = 0; d < rank; ++d) point[d] = operand(frame, arg[d]).as_int();
  return arr.flat_index(point.data(), rank);
}

Value EvalCore::call_intrinsic(Frame& frame, const LNode& x) {
  const int32_t* arg = frame.proc->args.data() + x.args;
  switch (x.fn) {
    case Intrinsic::Myproc:
      return Value::of_int(my_p_);
    case Intrinsic::Min:
    case Intrinsic::Max: {
      const bool min = x.fn == Intrinsic::Min;
      Value v = eval(frame, arg[0]);
      for (int32_t k = 1; k < x.nargs; ++k) {
        const Value w = eval(frame, arg[k]);
        if (v.is_int && w.is_int)
          v = Value::of_int(min ? std::min(v.i, w.i) : std::max(v.i, w.i));
        else
          v = Value::of_real(min ? std::min(v.as_real(), w.as_real())
                                 : std::max(v.as_real(), w.as_real()));
      }
      return v;
    }
    case Intrinsic::Modp:
    case Intrinsic::Mod: {
      const int64_t a = eval(frame, arg[0]).as_int();
      const int64_t m = eval(frame, arg[1]).as_int();
      if (m == 0) throw std::runtime_error("integer division by zero");
      const int64_t r = a % m;
      return Value::of_int(x.fn == Intrinsic::Modp && r < 0 ? r + m : r);
    }
    case Intrinsic::Abs: {
      const Value v = eval(frame, arg[0]);
      return v.is_int ? Value::of_int(std::abs(v.i))
                      : Value::of_real(std::fabs(v.d));
    }
    case Intrinsic::Sqrt:
      return Value::of_real(std::sqrt(eval(frame, arg[0]).as_real()));
    case Intrinsic::F:
      // The paper's unspecified F(...) — an arbitrary elementwise function.
      return Value::of_real(0.5 * eval(frame, arg[0]).as_real() + 1.0);
    case Intrinsic::Owner: {
      const ArrayStorage* arr = array(frame, x.name);
      const auto rank = static_cast<size_t>(x.nargs);
      RankBuffer<int64_t> point(rank);
      for (size_t d = 0; d < rank; ++d)
        point[d] = operand(frame, arg[d]).as_int();
      return Value::of_int(arr->owner(point.data(), rank));
    }
    case Intrinsic::Unknown:
      throw std::runtime_error("unknown intrinsic function '" + x.src->name +
                               "'");
    case Intrinsic::BadArity:
      throw std::runtime_error("too few arguments to intrinsic function '" +
                               x.src->name + "'");
  }
  return Value::of_int(0);
}

Value EvalCore::eval(Frame& frame, int32_t node) {
  const LNode& x = frame.proc->nodes[static_cast<size_t>(node)];
  switch (x.op) {
    case NodeOp::Lit:
      return x.lit;
    case NodeOp::Scalar:
      return *scalar(frame, x.name);
    case NodeOp::Element: {
      const ArrayStorage* arr = array(frame, x.name);
      const double v = arr->data[static_cast<size_t>(
          element_index(frame, *arr, x.args, x.nargs))];
      return arr->type == ElemType::Integer
                 ? Value::of_int(static_cast<int64_t>(v))
                 : Value::of_real(v);
    }
    case NodeOp::Call:
      stats_.clock_us += cost_.flop_us;
      ++stats_.flops;
      return call_intrinsic(frame, x);
    case NodeOp::Neg: {
      const Value v = eval(frame, x.lhs);
      return v.is_int ? Value::of_int(-v.i) : Value::of_real(-v.d);
    }
    case NodeOp::Not:
      return Value::of_int(eval(frame, x.lhs).truthy() ? 0 : 1);
    default:
      break;
  }
  const Value l = operand(frame, x.lhs);
  const Value r = operand(frame, x.rhs);
  stats_.clock_us += cost_.flop_us;
  ++stats_.flops;
  const bool ii = l.is_int && r.is_int;
  switch (x.op) {
    case NodeOp::Add:
      return ii ? Value::of_int(l.i + r.i)
                : Value::of_real(l.as_real() + r.as_real());
    case NodeOp::Sub:
      return ii ? Value::of_int(l.i - r.i)
                : Value::of_real(l.as_real() - r.as_real());
    case NodeOp::Mul:
      return ii ? Value::of_int(l.i * r.i)
                : Value::of_real(l.as_real() * r.as_real());
    case NodeOp::Div:
      if (ii) {
        if (r.i == 0) throw std::runtime_error("integer division by zero");
        return Value::of_int(l.i / r.i);
      }
      return Value::of_real(l.as_real() / r.as_real());
    case NodeOp::Eq:
      return Value::of_int(ii ? l.i == r.i : l.as_real() == r.as_real());
    case NodeOp::Ne:
      return Value::of_int(ii ? l.i != r.i : l.as_real() != r.as_real());
    case NodeOp::Lt:
      return Value::of_int(ii ? l.i < r.i : l.as_real() < r.as_real());
    case NodeOp::Le:
      return Value::of_int(ii ? l.i <= r.i : l.as_real() <= r.as_real());
    case NodeOp::Gt:
      return Value::of_int(ii ? l.i > r.i : l.as_real() > r.as_real());
    case NodeOp::Ge:
      return Value::of_int(ii ? l.i >= r.i : l.as_real() >= r.as_real());
    case NodeOp::And:
      return Value::of_int(l.truthy() && r.truthy());
    case NodeOp::Or:
      return Value::of_int(l.truthy() || r.truthy());
    default:
      break;
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
  const ArrayStorage* proto = contexts[0]->main_array(array);
  if (!proto)
    throw std::runtime_error("gather: unknown main-program array '" + array +
                             "'");
  if (!spec) spec = proto->dist;

  // Unlabeled arrays belong to processor 0, like replicated ones.
  const OwnerFn owner = spec ? OwnerFn(*spec, proto->bounds,
                                       static_cast<int>(contexts.size()))
                             : OwnerFn();
  std::vector<const ArrayStorage*> copies;
  for (const EvalCore* context : contexts)
    copies.push_back(context->array_by_uid(proto->uid));
  const size_t rank = proto->bounds.size();
  std::vector<double> out;
  out.reserve(static_cast<size_t>(proto->size()));
  Rsd::dense(proto->bounds).for_each([&](const int64_t* point) {
    const ArrayStorage* arr = copies[static_cast<size_t>(owner(point, rank))];
    out.push_back(
        arr ? arr->data[static_cast<size_t>(arr->flat_index(point, rank))]
            : 0.0);
  });
  return out;
}

}  // namespace fortd
