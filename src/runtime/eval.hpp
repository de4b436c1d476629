// Shared SPMD evaluation core: one EvalCore per processor executes the
// generated program's statements and expressions. Everything a backend can
// disagree about — how messages move, what a collective costs, how a
// redistribution exchanges data — is a virtual hook; everything else
// (frames, scoping, arithmetic, intrinsics, the run-time distribution
// registry) lives here so both SPMD backends and the serial reference
// interpreter compute bit-identical values.
//
// Storage model (inherited from the original Machine interpreter): every
// processor holds full-size (global index space) copies of all arrays;
// ownership determines which copy is *current*. This matches how the
// compiled code is generated (global indices) and leaves all observable
// quantities — messages, bytes, final owned values — identical to a
// local-index implementation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "ir/decomp.hpp"
#include "ir/rsd.hpp"

namespace fortd {

/// A typed scalar value. Integer arithmetic stays exact (Fortran integer
/// division truncates); mixed expressions promote to real.
struct Value {
  bool is_int = true;
  int64_t i = 0;
  double d = 0.0;

  static Value of_int(int64_t v) { return {true, v, static_cast<double>(v)}; }
  static Value of_real(double v) { return {false, 0, v}; }
  double as_real() const { return is_int ? static_cast<double>(i) : d; }
  int64_t as_int() const { return is_int ? i : static_cast<int64_t>(d); }
  bool truthy() const { return is_int ? i != 0 : d != 0.0; }
};

/// Array storage: column-major-agnostic flat buffer addressed by global
/// indices. `uid` is the allocation sequence number — identical across
/// processors because SPMD execution is symmetric — used to pair up peers'
/// copies during remaps.
struct ArrayStorage {
  int uid = -1;
  std::string name;
  ElemType type = ElemType::Real;
  std::vector<std::pair<int64_t, int64_t>> bounds;
  std::vector<double> data;

  int64_t flat_index(const std::vector<int64_t>& point) const;
  int64_t size() const;
  double get(const std::vector<int64_t>& point) const {
    return data[static_cast<size_t>(flat_index(point))];
  }
  void set(const std::vector<int64_t>& point, double v) {
    data[static_cast<size_t>(flat_index(point))] = v;
  }
};

/// A scalar cell, shareable by reference across call frames.
using ScalarCell = std::shared_ptr<Value>;
using ArrayRefPtr = std::shared_ptr<ArrayStorage>;

struct Frame {
  std::map<std::string, ScalarCell> scalars;
  std::map<std::string, ArrayRefPtr> arrays;
};

struct ProcStats {
  double clock_us = 0.0;  // logical clock (simulator backend only)
  int64_t flops = 0;
  int64_t iterations = 0;
  int64_t sends = 0;
  int64_t recvs = 0;
  int64_t sent_bytes = 0;   // payload bytes of counted sends
  int64_t recvd_bytes = 0;  // payload bytes of counted recvs
};

/// The backend-independent SPMD evaluator. Subclasses implement the
/// communication statements and (optionally) the cost hooks.
class EvalCore {
 public:
  EvalCore(const SourceProgram& ast, int my_p, int n_procs);
  virtual ~EvalCore() = default;

  EvalCore(const EvalCore&) = delete;
  EvalCore& operator=(const EvalCore&) = delete;

  /// Execute the main program to completion.
  void run();

  int my_p() const { return my_p_; }
  int n_procs() const { return n_procs_; }
  const ProcStats& stats() const { return stats_; }
  /// The main program's frame (kept alive after run for result gathering).
  const Frame& main_frame() const { return main_frame_; }
  ArrayStorage* array_by_uid(int uid) const;
  const DecompSpec* registry_spec(const ArrayStorage* storage) const;

 protected:
  // -- backend hooks: communication ---------------------------------------
  virtual void exec_send(const Stmt& s, Frame& frame) = 0;
  virtual void exec_recv(const Stmt& s, Frame& frame) = 0;
  virtual void exec_broadcast(const Stmt& s, Frame& frame) = 0;
  virtual void exec_allreduce(const Stmt& s, Frame& frame) = 0;
  /// Collective redistribution at statement `s`: move every element whose
  /// owner changes from its previous owner's copy to its new owner's, and
  /// account for the traffic. `from` null = initial labeling (no data
  /// motion). The implementation must record `to` in registry_ (via
  /// note_distribution) before returning.
  virtual void apply_redistribution(const Stmt& s, ArrayStorage* arr,
                                    const DecompSpec* from,
                                    const DecompSpec& to) = 0;

  // -- backend hooks: cost accounting -------------------------------------
  // Fired at exactly the sequence points the logical-clock simulator
  // charges; the serial reference keeps the default no-ops.
  virtual void charge_guard() {}
  virtual void charge_loop_iteration() {}
  virtual void charge_flop() {}
  virtual void charge_call() {}

  // -- shared machinery ----------------------------------------------------
  void exec_stmts(const std::vector<StmtPtr>& stmts, Frame& frame);
  void exec_stmt(const Stmt& s, Frame& frame);
  void exec_call(const Stmt& s, Frame& frame);

  Value eval(const Expr& e, Frame& frame);
  Value eval_intrinsic(const Expr& e, Frame& frame);
  Value* scalar_lvalue(const std::string& name, Frame& frame);
  ArrayStorage* array_of(const std::string& name, Frame& frame);
  std::vector<int64_t> eval_point(const std::vector<ExprPtr>& subs,
                                  Frame& frame);
  /// Evaluate a message section to a concrete Rsd.
  Rsd eval_section(const std::vector<SectionExpr>& sec, Frame& frame);
  Frame make_frame(const Procedure& proc, Frame* caller,
                   const std::vector<ExprPtr>* actuals);

  /// Record `spec` as the array's current distribution.
  void note_distribution(ArrayStorage* arr, const DecompSpec& spec) {
    registry_[arr] = spec;
  }

  // Payload packing shared by every message-passing backend.
  std::vector<double> pack_section(ArrayStorage* arr, const Rsd& section);
  void unpack_section(ArrayStorage* arr, const Rsd& section,
                      const std::vector<double>& payload,
                      const std::string& what);
  /// Store a broadcast scalar, preserving integer-ness for integer cells
  /// (pivot indices).
  static void store_bcast_scalar(Value* cell, double v);

  const SourceProgram& ast_;
  int my_p_;
  int n_procs_;
  ProcStats stats_;
  Frame globals_;  // COMMON variables
  Frame main_frame_;
  std::map<const ArrayStorage*, DecompSpec> registry_;
  int next_uid_ = 0;
  bool returning_ = false;  // a RETURN is unwinding the current procedure
};

/// Assemble the authoritative final contents of a main-program array from
/// each element's owning context. `spec` null = use context 0's run-time
/// registry entry (replicated when absent).
std::vector<double> gather_array(const std::vector<const EvalCore*>& contexts,
                                 const std::string& array,
                                 const DecompSpec* spec);

}  // namespace fortd
