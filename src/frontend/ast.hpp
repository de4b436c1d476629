// Abstract syntax tree for the Fortran D dialect.
//
// One AST serves two levels:
//   * the *source* level produced by the parser (assignments, DO loops,
//     IFs, CALLs, ALIGN/DISTRIBUTE statements), and
//   * the *SPMD* level produced by code generation, which adds explicit
//     message-passing statements (Send/Recv/Broadcast), data-remapping
//     statements, and processor-id intrinsics. The parser never produces
//     SPMD-level nodes; the interpreter and the pretty-printer handle both.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace fortd {

enum class ElemType { Real, Integer, Logical };

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  IntLit,
  RealLit,
  VarRef,    // scalar variable (or whole-array actual argument)
  ArrayRef,  // subscripted reference
  Binary,
  Unary,
  FuncCall,  // intrinsic or user function used inside an expression
};

enum class BinOp { Add, Sub, Mul, Div, Eq, Ne, Lt, Le, Gt, Ge, And, Or };
enum class UnOp { Neg, Not };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;
  SourceLoc loc;

  long long int_val = 0;   // IntLit
  double real_val = 0.0;   // RealLit
  std::string name;        // VarRef / ArrayRef / FuncCall
  BinOp bin_op = BinOp::Add;
  UnOp un_op = UnOp::Neg;
  // Binary: {lhs, rhs}; Unary: {operand}; ArrayRef: subscripts;
  // FuncCall: arguments.
  std::vector<ExprPtr> args;

  ExprPtr clone() const;
  bool structurally_equal(const Expr& other) const;

  // -- factories --------------------------------------------------------
  static ExprPtr make_int(long long v, SourceLoc loc = {});
  static ExprPtr make_real(double v, SourceLoc loc = {});
  static ExprPtr make_var(std::string name, SourceLoc loc = {});
  static ExprPtr make_array_ref(std::string name, std::vector<ExprPtr> subs,
                                SourceLoc loc = {});
  static ExprPtr make_binary(BinOp op, ExprPtr l, ExprPtr r, SourceLoc loc = {});
  static ExprPtr make_unary(UnOp op, ExprPtr operand, SourceLoc loc = {});
  static ExprPtr make_call(std::string name, std::vector<ExprPtr> args,
                           SourceLoc loc = {});
};

/// A Fortran-90-style triplet `lb:ub:step` used by SPMD message statements
/// to describe an array section (a syntactic RSD; see ir/rsd.hpp for the
/// value-level form used by analysis).
struct SectionExpr {
  ExprPtr lb;
  ExprPtr ub;
  ExprPtr step;  // null means 1

  SectionExpr clone() const;
};

// ---------------------------------------------------------------------------
// Distribution specifications
// ---------------------------------------------------------------------------

enum class DistKind { None, Block, Cyclic, BlockCyclic };

struct DistSpec {
  DistKind kind = DistKind::None;
  int block_size = 0;  // BlockCyclic only

  bool operator==(const DistSpec&) const = default;
  std::string str() const;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  // -- source level --
  Assign,
  If,
  Do,
  Call,
  Return,
  Continue,
  Align,       // executable ALIGN a(i,j) WITH d(j,i)
  Distribute,  // executable DISTRIBUTE d(BLOCK,:)
  // -- SPMD level (emitted by code generation only) --
  Send,       // send section of array to processor `peer`
  Recv,       // receive section of array from processor `peer`
  Broadcast,  // broadcast section from processor `peer` (root) to all
  Remap,      // runtime remap of array between distributions (copies data)
  MarkDist,   // array-kill optimized remap: relabel distribution, no copy
  AllReduce,  // combine a scalar across all processors (sum/min/max)
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct Stmt {
  StmtKind kind;
  int id = -1;  // unique within the enclosing procedure; -1 for synthesized
  SourceLoc loc;

  // Assign
  ExprPtr lhs;  // VarRef or ArrayRef
  ExprPtr rhs;

  // If
  ExprPtr cond;
  std::vector<StmtPtr> then_body;
  std::vector<StmtPtr> else_body;

  // Do
  std::string loop_var;
  ExprPtr lb, ub, step;  // step null means 1
  std::vector<StmtPtr> body;

  // Call
  std::string callee;
  std::vector<ExprPtr> call_args;

  // Align
  std::string align_array;
  std::string align_target;       // decomposition (or array) aligned with
  std::vector<int> align_perm;    // align_perm[target_dim] = array dim (0-based)

  // Distribute / Remap / MarkDist
  std::string dist_target;          // decomposition or array name
  std::vector<DistSpec> dist_specs; // new distribution
  std::vector<DistSpec> from_specs; // Remap: previous distribution

  // Send / Recv / Broadcast / AllReduce (msg_array names the scalar)
  std::string msg_array;
  std::vector<SectionExpr> msg_section;
  ExprPtr peer;  // destination (Send), source (Recv), root (Broadcast)
  std::string reduce_op;  // AllReduce: "sum" | "min" | "max"

  StmtPtr clone() const;

  // -- factories ---------------------------------------------------------
  static StmtPtr make_assign(ExprPtr lhs, ExprPtr rhs, SourceLoc loc = {});
  static StmtPtr make_if(ExprPtr cond, std::vector<StmtPtr> then_body,
                         std::vector<StmtPtr> else_body = {}, SourceLoc loc = {});
  static StmtPtr make_do(std::string var, ExprPtr lb, ExprPtr ub, ExprPtr step,
                         std::vector<StmtPtr> body, SourceLoc loc = {});
  static StmtPtr make_call(std::string callee, std::vector<ExprPtr> args,
                           SourceLoc loc = {});
  static StmtPtr make_send(std::string array, std::vector<SectionExpr> section,
                           ExprPtr dest);
  static StmtPtr make_recv(std::string array, std::vector<SectionExpr> section,
                           ExprPtr src);
  static StmtPtr make_broadcast(std::string array, std::vector<SectionExpr> section,
                                ExprPtr root);
};

std::vector<StmtPtr> clone_stmts(const std::vector<StmtPtr>& stmts);

// ---------------------------------------------------------------------------
// Declarations and procedures
// ---------------------------------------------------------------------------

struct ArrayDim {
  ExprPtr lb;  // null means 1
  ExprPtr ub;

  ArrayDim clone() const;
};

struct VarDecl {
  std::string name;
  ElemType type = ElemType::Real;
  std::vector<ArrayDim> dims;  // empty for scalars
  bool is_decomposition = false;
  SourceLoc loc;

  VarDecl clone() const;
};

struct ParamConst {
  std::string name;
  ExprPtr value;
};

struct CommonBlock {
  std::string name;
  std::vector<std::string> vars;
};

struct Procedure {
  std::string name;
  bool is_program = false;
  std::vector<std::string> formals;
  std::vector<VarDecl> decls;
  std::vector<ParamConst> params;
  std::vector<CommonBlock> commons;
  std::vector<StmtPtr> body;
  int next_stmt_id = 0;  // used when synthesizing statements with fresh ids

  const VarDecl* find_decl(const std::string& name) const;
  VarDecl* find_decl(const std::string& name);
  bool is_formal(const std::string& name) const;
  /// Index of `name` in the formal list, or -1.
  int formal_index(const std::string& name) const;

  std::unique_ptr<Procedure> clone_as(const std::string& new_name) const;
};

/// A whole Fortran D compilation unit (one or more procedures; exactly one
/// PROGRAM for executable units).
struct SourceProgram {
  std::vector<std::unique_ptr<Procedure>> procedures;

  Procedure* find(const std::string& name);
  const Procedure* find(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Walking helpers
// ---------------------------------------------------------------------------

/// Invoke `fn` on every expression in `e`'s tree (pre-order), including `e`.
void walk_expr(Expr& e, const std::function<void(Expr&)>& fn);
void walk_expr(const Expr& e, const std::function<void(const Expr&)>& fn);

/// Invoke `fn` on every statement in the list (pre-order, recursing into
/// If/Do bodies).
void walk_stmts(std::vector<StmtPtr>& stmts, const std::function<void(Stmt&)>& fn);
void walk_stmts(const std::vector<StmtPtr>& stmts,
                const std::function<void(const Stmt&)>& fn);

/// Invoke `fn` on every expression appearing anywhere in `s` (its own
/// operands only, not nested statements).
void for_each_expr(Stmt& s, const std::function<void(Expr&)>& fn);
void for_each_expr(const Stmt& s, const std::function<void(const Expr&)>& fn);

}  // namespace fortd
