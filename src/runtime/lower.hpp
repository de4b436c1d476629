// The lowered program the evaluator runs (runtime/eval.hpp).
//
// Lowering resolves, once per execution, everything the evaluator would
// otherwise look up by name while the program runs:
//   * each procedure gets one slot per name it uses; a slot holds the
//     name's scalar cell and its array, whichever the name is bound to at
//     run time (a formal can be either);
//   * a name that appears in any COMMON block of the program, and my$p,
//     also gets an index among the program's globals, which the evaluator
//     consults when the frame has no binding for it;
//   * expressions are flat nodes with operator and intrinsic enums, and
//     owner$X names X's slot;
//   * a CALL names its callee by index, and a DISTRIBUTE, remap or MARK
//     carries its distributions as values.
// The result is read-only and shared by every processor of an execution.
// Lowering never fails: an unknown intrinsic, procedure or array is
// reported when the statement naming it runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "ir/decomp.hpp"

namespace fortd {

/// A typed scalar value. Integer arithmetic stays exact (Fortran integer
/// division truncates); mixed expressions promote to real.
struct Value {
  bool is_int = true;
  union {
    int64_t i = 0;  // is_int
    double d;       // !is_int
  };

  static Value of_int(int64_t v) {
    Value r;
    r.i = v;
    return r;
  }
  static Value of_real(double v) {
    Value r;
    r.is_int = false;
    r.d = v;
    return r;
  }
  double as_real() const { return is_int ? static_cast<double>(i) : d; }
  int64_t as_int() const { return is_int ? i : static_cast<int64_t>(d); }
  bool truthy() const { return is_int ? i != 0 : d != 0.0; }
};

/// A name as one procedure uses it: its frame slot, and its index among the
/// program's globals (-1 when no COMMON block names it).
struct NameRef {
  int32_t slot = -1;
  int32_t global = -1;
};

enum class NodeOp : uint8_t {
  Lit,      // lit
  Scalar,   // name
  Element,  // name(args)
  Call,     // fn(args); Owner: owner$name(args)
  Neg,      // -lhs
  Not,      // .not. lhs
  Add, Sub, Mul, Div, Eq, Ne, Lt, Le, Gt, Ge, And, Or,  // lhs op rhs
};

enum class Intrinsic : uint8_t {
  Myproc, Min, Max, Modp, Mod, Abs, Sqrt, F, Owner,
  Unknown,   // reported by name when evaluated
  BadArity,  // too few arguments: reported when evaluated
};

struct LNode {
  NodeOp op = NodeOp::Lit;
  Intrinsic fn = Intrinsic::Unknown;
  NameRef name;
  int32_t lhs = -1, rhs = -1;
  int32_t args = 0, nargs = 0;  // a range of LProc::args
  Value lit;
  const Expr* src = nullptr;
};

/// A message section dimension lb:ub:step as node indices (step -1 = 1).
struct LTriplet {
  int32_t lb = -1, ub = -1, step = -1;
};

/// One actual argument of a CALL: a variable is passed by reference,
/// anything else by value.
struct LActual {
  bool by_ref = false;
  NameRef var;       // by_ref
  int32_t node = -1;  // !by_ref
};

enum class ReduceOp : uint8_t { Sum, Min, Max };

struct LStmt {
  StmtKind kind = StmtKind::Continue;
  const Stmt* src = nullptr;  // position, names and callee for reports
  // Assign: lhs variable or array; Do: loop variable; Distribute, Remap,
  // MarkDist: the array; Send, Recv, Broadcast, AllReduce: msg_array.
  NameRef target;
  bool element = false;  // Assign: the lhs is subscripted
  // Assign: rhs = a, subscripts = args range; If: cond = a;
  // Do: lb = a, ub = b, step = c (-1 = 1); Send, Recv, Broadcast: peer = a.
  int32_t a = -1, b = -1, c = -1;
  int32_t args = 0, nargs = 0;  // Assign subscripts, in LProc::args
  // If: then = [first, first + count), else = [first2, first2 + count2);
  // Do: body = [first, first + count). Ranges of LProc::stmts.
  int32_t first = 0, count = 0, first2 = 0, count2 = 0;
  int32_t callee = -1;                // Call: index in LoweredProgram::procs
  int32_t actuals = 0, nactuals = 0;  // Call: a range of LProc::actuals
  int32_t section = 0, rank = 0;      // a range of LProc::sections
  DecompSpec to, from;  // Distribute, Remap, MarkDist; Remap: from
  bool has_from = false;  // Remap: from_specs given
  ReduceOp reduce = ReduceOp::Sum;
};

struct LDecl {
  NameRef name;
  int32_t common = -1;  // global index when this procedure's COMMON holds it
  ElemType type = ElemType::Real;
  std::vector<std::pair<int32_t, int32_t>> dims;  // (lb or -1 = 1, ub) nodes
};

struct LProc {
  std::vector<std::string> names;  // slot -> name
  std::vector<LNode> nodes;
  std::vector<int32_t> args;  // argument and subscript lists of nodes
  std::vector<LStmt> stmts;
  std::vector<LActual> actuals;
  std::vector<LTriplet> sections;
  std::vector<std::pair<int32_t, int32_t>> params;  // (slot, value node)
  std::vector<int32_t> formals;                     // slots
  std::vector<LDecl> decls;  // in declaration order, decompositions left out
  int32_t body = 0, body_len = 0;  // a range of stmts
};

struct LoweredProgram {
  std::vector<std::string> globals;  // globals[0] is my$p
  std::vector<LProc> procs;          // in SourceProgram order
  int32_t main = -1;                 // the first PROGRAM, or -1
};

LoweredProgram lower_program(const SourceProgram& ast);

}  // namespace fortd
