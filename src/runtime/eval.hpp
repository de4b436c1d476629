// Shared SPMD evaluation core: one EvalCore per processor runs the lowered
// program (runtime/lower.hpp) that every processor of an execution shares.
// Everything a backend can disagree about — how messages move, what a
// collective costs, how a redistribution exchanges data — is a virtual
// hook; everything else (frames, scoping, arithmetic, intrinsics, the
// run-time distribution registry) lives here so both SPMD backends and the
// serial reference interpreter compute bit-identical values.
//
// A frame is one cell pointer and one array pointer per slot of its
// procedure, so no name is looked up while the program runs. A slot with
// no binding falls back, when used, to the program's global of that name
// (a COMMON variable a declaration has created, or my$p), and otherwise
// becomes a fresh implicit local. The registry is kept on each array:
// its current distribution and the owner function precomputed from it,
// rebuilt only when a DISTRIBUTE, a remap or a MARK relabels the array.
//
// Storage model (inherited from the original Machine interpreter): every
// processor holds full-size (global index space) copies of all arrays;
// ownership determines which copy is *current*. This matches how the
// compiled code is generated (global indices) and leaves all observable
// quantities — messages, bytes, final owned values — identical to a
// local-index implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codegen/distribution.hpp"
#include "ir/rsd.hpp"
#include "machine/cost_model.hpp"
#include "runtime/lower.hpp"

namespace fortd {

/// Array storage: a flat buffer addressed by global indices, last dimension
/// fastest. `uid` is the allocation sequence number — identical across
/// processors because SPMD execution is symmetric — used to pair up peers'
/// copies during remaps.
struct ArrayStorage {
  int uid = -1;
  std::string name;
  ElemType type = ElemType::Real;
  std::vector<std::pair<int64_t, int64_t>> bounds;
  std::vector<double> data;
  // The registry entry: the current distribution (null until one labels
  // the array) and its owner function.
  const DecompSpec* dist = nullptr;
  OwnerFn owner;

  /// The flat index of `point`; throws on a rank mismatch or a subscript
  /// out of bounds.
  int64_t flat_index(const int64_t* point, size_t rank) const {
    if (rank != bounds.size()) rank_mismatch();
    int64_t idx = 0;
    for (size_t d = 0; d < rank; ++d) {
      const auto [lb, ub] = bounds[d];
      if (point[d] < lb || point[d] > ub) out_of_bounds(d, point[d]);
      idx = idx * (ub - lb + 1) + (point[d] - lb);
    }
    return idx;
  }
  int64_t size() const;

 private:
  [[noreturn]] void rank_mismatch() const;
  [[noreturn]] void out_of_bounds(size_t d, int64_t index) const;
};

struct Frame {
  struct Slot {
    Value* scalar = nullptr;        // own, a caller's cell or a global
    ArrayStorage* array = nullptr;  // a local, a caller's array or a global
    Value own;
  };
  const LProc* proc = nullptr;
  std::vector<Slot> slots;
  std::vector<std::unique_ptr<ArrayStorage>> locals;
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
/// communication statements. `cost` prices the logical clock; a model
/// whose every price is zero leaves it at 0.
class EvalCore {
 public:
  EvalCore(std::shared_ptr<const LoweredProgram> program, int my_p,
           int n_procs, const CostModel& cost);
  virtual ~EvalCore() = default;

  EvalCore(const EvalCore&) = delete;
  EvalCore& operator=(const EvalCore&) = delete;

  /// Execute the main program to completion.
  void run();

  int my_p() const { return my_p_; }
  int n_procs() const { return n_procs_; }
  const ProcStats& stats() const { return stats_; }
  /// The main program's bindings, kept after run for result gathering
  /// (null, or empty, when the main frame binds no such name).
  const ArrayStorage* main_array(const std::string& name) const;
  const Value* main_scalar(const std::string& name) const;
  std::vector<std::string> main_array_names() const;
  /// A global or main-program array by allocation number, or null.
  const ArrayStorage* array_by_uid(int uid) const;

 protected:
  // -- backend hooks: communication ---------------------------------------
  virtual void exec_send(const LStmt& s, Frame& frame) = 0;
  virtual void exec_recv(const LStmt& s, Frame& frame) = 0;
  virtual void exec_broadcast(const LStmt& s, Frame& frame) = 0;
  virtual void exec_allreduce(const LStmt& s, Frame& frame) = 0;
  /// Collective redistribution at statement `s`: move every element whose
  /// owner changes from its previous owner's copy to its new owner's, and
  /// account for the traffic. `from` null = initial labeling (no data
  /// motion). The implementation must record `to` (via note_distribution)
  /// before returning; both point into the lowered program.
  virtual void apply_redistribution(const Stmt& s, ArrayStorage* arr,
                                    const DecompSpec* from,
                                    const DecompSpec* to) = 0;

  // -- shared machinery ----------------------------------------------------
  Value eval(Frame& frame, int32_t node);
  Value* scalar(Frame& frame, NameRef name) {
    if (Value* cell = frame.slots[static_cast<size_t>(name.slot)].scalar)
      return cell;
    if (name.global >= 0)
      if (Value* cell = globals_[static_cast<size_t>(name.global)].scalar)
        return cell;
    return implicit_local(frame, name.slot);
  }
  ArrayStorage* array(Frame& frame, NameRef name) {
    ArrayStorage* arr = frame.slots[static_cast<size_t>(name.slot)].array;
    return arr ? arr : resolve_array(frame, name);
  }
  /// Evaluate a message section to a concrete Rsd.
  Rsd eval_section(const LStmt& s, Frame& frame);

  /// Record `spec` as the array's current distribution.
  void note_distribution(ArrayStorage* arr, const DecompSpec* spec);

  // Payload packing shared by every message-passing backend, in
  // Rsd::for_each() order.
  std::vector<double> pack_section(const ArrayStorage& arr,
                                   const Rsd& section);
  /// `op` ("recv", "broadcast") and the statement's array name a size
  /// mismatch.
  void unpack_section(ArrayStorage& arr, const Rsd& section,
                      const std::vector<double>& payload, const char* op,
                      const Stmt& s);
  /// Store a broadcast scalar, preserving integer-ness for integer cells
  /// (pivot indices).
  static void store_bcast_scalar(Value* cell, double v);

  int my_p_;
  int n_procs_;
  const CostModel cost_;
  ProcStats stats_;

 private:
  struct Global {
    Value* scalar = nullptr;  // &own once a declaration created it
    Value own;
    std::unique_ptr<ArrayStorage> array;
  };
  /// A registry entry as it was before a change inside a CALL.
  struct Relabel {
    ArrayStorage* arr;
    const DecompSpec* before;
  };

  Value* implicit_local(Frame& frame, int32_t slot);
  /// eval() with literals and bound scalars read in place.
  Value operand(Frame& frame, int32_t node) {
    const LNode& x = frame.proc->nodes[static_cast<size_t>(node)];
    if (x.op == NodeOp::Lit) return x.lit;
    if (x.op == NodeOp::Scalar)
      if (const Value* cell =
              frame.slots[static_cast<size_t>(x.name.slot)].scalar)
        return *cell;
    return eval(frame, node);
  }
  ArrayStorage* resolve_array(Frame& frame, NameRef name);
  ArrayStorage* find_array(Frame& frame, NameRef name);
  void bind_own(Frame& frame, int32_t slot, Value v);
  std::unique_ptr<ArrayStorage> allocate(
      const std::string& name, ElemType type,
      std::vector<std::pair<int64_t, int64_t>> bounds);
  Frame make_frame(const LProc& proc, Frame* caller, const LStmt* call);
  void exec_range(Frame& frame, int32_t first, int32_t count);
  void exec_stmt(Frame& frame, const LStmt& s);
  void exec_call(Frame& frame, const LStmt& s);
  /// Undo the relabels logged since `mark`, moving the data back.
  void restore_registry(size_t mark, const Stmt& call);
  void set_distribution(ArrayStorage* arr, const DecompSpec* spec);
  int64_t element_index(Frame& frame, const ArrayStorage& arr, int32_t args,
                        int32_t nargs);
  Value call_intrinsic(Frame& frame, const LNode& x);

  std::shared_ptr<const LoweredProgram> program_;
  std::vector<Global> globals_;  // sized once: cells are shared by address
  Frame main_frame_;             // bound once the main frame is built
  std::vector<Relabel> relabels_;  // logged only inside a CALL
  int call_depth_ = 0;
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
