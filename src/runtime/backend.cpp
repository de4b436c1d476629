#include "runtime/backend.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>

#include "runtime/scheduler.hpp"

namespace fortd {

std::optional<BackendKind> parse_backend_kind(const std::string& name) {
  if (name == "sim" || name == "simulator") return BackendKind::Simulator;
  if (name == "threads" || name == "threaded") return BackendKind::Threaded;
  return std::nullopt;
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Simulator: return "sim";
    case BackendKind::Threaded: return "threads";
  }
  return "?";
}

std::vector<double> ExecResult::gather(const std::string& array) const {
  if (contexts.empty()) throw std::runtime_error("gather: no contexts");
  return gather_array(contexts, array, nullptr);
}

std::vector<double> ExecResult::gather(const std::string& array,
                                       const DecompSpec& spec) const {
  if (contexts.empty()) throw std::runtime_error("gather: no contexts");
  return gather_array(contexts, array, &spec);
}

double ExecResult::gather_scalar(const std::string& name) const {
  if (contexts.empty()) throw std::runtime_error("gather_scalar: no contexts");
  const Value* cell = contexts.front()->main_scalar(name);
  if (!cell)
    throw std::runtime_error("gather_scalar: unknown scalar '" + name + "'");
  return cell->as_real();
}

std::vector<std::string> ExecResult::main_arrays() const {
  if (contexts.empty()) return {};
  std::vector<std::string> names = contexts.front()->main_array_names();
  std::sort(names.begin(), names.end());
  return names;
}

namespace {

using runtime::Blocked;

class Processor;

/// What the P processors of one execution share: a FIFO channel per
/// (source, destination) pair, the remap barrier, and the remap counters.
struct Machine {
  struct Message {
    std::vector<double> payload;
    double arrival_us;  // earliest logical time the receiver may consume it
  };
  struct Channel {
    std::deque<Message> queue;
    int64_t posted = 0;  // messages ever posted
    int64_t taken = 0;   // messages ever taken
  };

  Machine(int n_procs, BackendKind kind, const CostModel& cost)
      : n_procs(n_procs),
        rendezvous(kind == BackendKind::Threaded),
        cost(cost),
        channels(static_cast<size_t>(n_procs) * static_cast<size_t>(n_procs)) {}

  Channel& channel(int src, int dst) {
    return channels[static_cast<size_t>(src) * static_cast<size_t>(n_procs) +
                    static_cast<size_t>(dst)];
  }

  const int n_procs;
  const bool rendezvous;  // a send waits until its receiver took it
  const CostModel cost;
  runtime::Scheduler scheduler;
  std::vector<Channel> channels;
  std::vector<std::unique_ptr<Processor>> procs;

  // The remap barrier: every arrival raises max_clock; the last one
  // publishes it as release_clock and opens the next generation.
  int arrived = 0;
  int64_t generation = 0;
  double max_clock = 0.0;
  double release_clock = 0.0;

  // Counted once per collective remap, by processor 0.
  int64_t remaps = 0;
  int64_t remap_bytes = 0;
};

/// One SPMD processor. Its communication is written once for both kinds:
/// the CostModel prices it (every price is zero for `threads`), and
/// Machine::rendezvous decides whether a send waits for its receiver.
class Processor : public EvalCore {
 public:
  Processor(Machine& machine, std::shared_ptr<const LoweredProgram> program,
            int my_p)
      : EvalCore(std::move(program), my_p, machine.n_procs, machine.cost),
        m_(machine) {}

 protected:
  void exec_send(const LStmt& s, Frame& frame) override {
    const int dst = static_cast<int>(eval(frame, s.a).as_int());
    const ArrayStorage* arr = array(frame, s.target);
    const Rsd section = eval_section(s, frame);
    if (section.empty()) return;  // edge processor with a short/empty block

    std::vector<double> payload = pack_section(*arr, section);
    const int64_t bytes = bytes_of(payload);
    const double arrival = stats_.clock_us + cost_.wire_time(bytes);
    stats_.clock_us += cost_.send_overhead_us;
    ++stats_.sends;
    stats_.sent_bytes += bytes;
    post(dst, std::move(payload), arrival, *s.src);
  }

  void exec_recv(const LStmt& s, Frame& frame) override {
    const int src = static_cast<int>(eval(frame, s.a).as_int());
    ArrayStorage* arr = array(frame, s.target);
    const Rsd section = eval_section(s, frame);
    if (section.empty()) return;  // matches the sender's empty-section skip
    unpack_section(*arr, section, take(src, *s.src), "recv", *s.src);
  }

  void exec_broadcast(const LStmt& s, Frame& frame) override {
    const int P = n_procs_;
    const int root = static_cast<int>(eval(frame, s.a).as_int());
    const bool whole_scalar = s.rank == 0;
    ArrayStorage* arr = whole_scalar ? nullptr : array(frame, s.target);
    const Rsd section = whole_scalar ? Rsd{} : eval_section(s, frame);

    if (P == 1) return;
    if (my_p_ != root) {
      std::vector<double> payload = take(root, *s.src);
      if (whole_scalar)
        store_bcast_scalar(scalar(frame, s.target), payload.at(0));
      else
        unpack_section(*arr, section, payload, "broadcast", *s.src);
      return;
    }
    std::vector<double> payload =
        whole_scalar ? std::vector<double>{scalar(frame, s.target)->as_real()}
                     : pack_section(*arr, section);
    const int64_t bytes = bytes_of(payload);
    const int depth = cost_.bcast_depth(P);
    const double arrival = stats_.clock_us + cost_.wire_time(bytes) * depth;
    for (int p = 0; p < P; ++p)
      if (p != my_p_) post(p, payload, arrival, *s.src);
    stats_.clock_us += cost_.send_overhead_us * depth;
    stats_.sends += P - 1;
    stats_.sent_bytes += (P - 1) * bytes;
  }

  void exec_allreduce(const LStmt& s, Frame& frame) override {
    // Gather-to-root + broadcast.
    const int P = n_procs_;
    Value* cell = scalar(frame, s.target);
    if (P == 1) return;
    const int64_t bytes = cost_.elem_bytes;
    if (my_p_ != 0) {
      const double arrival = stats_.clock_us + cost_.wire_time(bytes);
      stats_.clock_us += cost_.send_overhead_us;
      ++stats_.sends;
      stats_.sent_bytes += bytes;
      post(0, {cell->as_real()}, arrival, *s.src);
      *cell = Value::of_real(take(0, *s.src).at(0));
      return;
    }
    double acc = cell->as_real();
    for (int p = 1; p < P; ++p) {
      const double v = take(p, *s.src).at(0);
      if (s.reduce == ReduceOp::Min)
        acc = std::min(acc, v);
      else if (s.reduce == ReduceOp::Max)
        acc = std::max(acc, v);
      else
        acc += v;
    }
    *cell = Value::of_real(acc);
    const int depth = cost_.bcast_depth(P);
    const double arrival = stats_.clock_us + cost_.wire_time(bytes) * depth;
    for (int p = 1; p < P; ++p) post(p, {acc}, arrival, *s.src);
    stats_.clock_us += cost_.send_overhead_us * depth;
    stats_.sends += P - 1;
    stats_.sent_bytes += (P - 1) * bytes;
  }

  void apply_redistribution(const Stmt& s, ArrayStorage* arr,
                            const DecompSpec* from_spec,
                            const DecompSpec* to_spec) override {
    const int P = n_procs_;
    note_distribution(arr, to_spec);
    if (!from_spec) return;  // initial labeling: no data motion

    // Remapping is collective: no processor reads a peer's copy before
    // every peer has finished writing it.
    stats_.clock_us = barrier(s, arr->name);

    const OwnerFn from(*from_spec, arr->bounds, P);
    const OwnerFn& to = arr->owner;
    const int64_t moved_bytes =
        moved_elements(arr->bounds, from, to) * cost_.elem_bytes;
    if (moved_bytes > 0) {
      // Pull every element this processor now owns from its previous
      // owner's copy (their copy is authoritative).
      std::vector<const ArrayStorage*> peers;
      for (const auto& proc : m_.procs)
        peers.push_back(proc->array_by_uid(arr->uid));
      const size_t rank = arr->bounds.size();
      Rsd::dense(arr->bounds).for_each([&](const int64_t* point) {
        const int old_owner = from(point, rank);
        if (to(point, rank) != my_p_ || old_owner == my_p_) return;
        if (const ArrayStorage* peer = peers[static_cast<size_t>(old_owner)])
          arr->data[static_cast<size_t>(arr->flat_index(point, rank))] =
              peer->data[static_cast<size_t>(peer->flat_index(point, rank))];
      });
      // Charge: each processor exchanges roughly 1/P of the moved data.
      const double share = static_cast<double>(moved_bytes) / P;
      stats_.clock_us +=
          2.0 * (cost_.alpha_us + cost_.beta_us_per_byte * share) +
          cost_.send_overhead_us + cost_.recv_overhead_us;
      if (my_p_ == 0) {
        ++m_.remaps;
        m_.remap_bytes += moved_bytes;
      }
    }
    // Second barrier: no processor writes its copy while peers still read.
    stats_.clock_us = barrier(s, arr->name);
  }

 private:
  int64_t bytes_of(const std::vector<double>& payload) const {
    return static_cast<int64_t>(payload.size()) * cost_.elem_bytes;
  }

  /// Post `payload` to `dst`, consumable from `arrival_us` on. Under
  /// rendezvous, returns once `dst` has taken it.
  void post(int dst, std::vector<double> payload, double arrival_us,
            const Stmt& s) {
    Machine::Channel& ch = m_.channel(my_p_, dst);
    ch.queue.push_back({std::move(payload), arrival_us});
    const int64_t ticket = ch.posted++;
    m_.scheduler.progress();
    if (m_.rendezvous)
      m_.scheduler.wait_until([&] { return ch.taken > ticket; },
                              Blocked{"send to", dst, s.msg_array, s.loc});
  }

  /// Take the next message from `src` and charge its receipt.
  std::vector<double> take(int src, const Stmt& s) {
    Machine::Channel& ch = m_.channel(src, my_p_);
    m_.scheduler.wait_until([&] { return !ch.queue.empty(); },
                            Blocked{"recv from", src, s.msg_array, s.loc});
    Machine::Message msg = std::move(ch.queue.front());
    ch.queue.pop_front();
    ++ch.taken;
    m_.scheduler.progress();
    stats_.clock_us =
        std::max(stats_.clock_us + cost_.recv_overhead_us, msg.arrival_us);
    ++stats_.recvs;
    stats_.recvd_bytes += bytes_of(msg.payload);
    return std::move(msg.payload);
  }

  /// Wait until every processor reached this remap; returns the latest
  /// clock among them.
  double barrier(const Stmt& s, const std::string& array) {
    m_.max_clock = std::max(m_.max_clock, stats_.clock_us);
    m_.scheduler.progress();
    if (++m_.arrived == n_procs_) {
      m_.release_clock = m_.max_clock;
      m_.max_clock = 0.0;
      m_.arrived = 0;
      ++m_.generation;
      return m_.release_clock;
    }
    // release_clock stays valid until this processor reads it: the next
    // barrier cannot complete before it arrives there.
    const int64_t generation = m_.generation;
    m_.scheduler.wait_until([&] { return m_.generation != generation; },
                            Blocked{"barrier", -1, array, s.loc});
    return m_.release_clock;
  }

  Machine& m_;
};

/// The prices of the `threads` kind: all zero, so its clocks stay at 0.
CostModel free_of_charge(const CostModel& cm) {
  CostModel zero;
  zero.alpha_us = zero.beta_us_per_byte = 0.0;
  zero.send_overhead_us = zero.recv_overhead_us = 0.0;
  zero.flop_us = zero.loop_overhead_us = zero.guard_us = 0.0;
  zero.call_overhead_us = 0.0;
  zero.elem_bytes = cm.elem_bytes;
  return zero;
}

/// Single-process evaluator for the *original* program: no communication
/// statements exist pre-codegen, so every comm hook is a hard error, and
/// redistribution reduces to relabeling (there is no second copy to move
/// data from).
class SerialProcess : public EvalCore {
 public:
  explicit SerialProcess(std::shared_ptr<const LoweredProgram> program)
      : EvalCore(std::move(program), 0, 1, free_of_charge(CostModel{})) {}

 protected:
  [[noreturn]] void comm_in_serial(const char* what) {
    throw std::logic_error(std::string("serial reference executed a ") + what +
                           " — the input is not a pre-SPMD program");
  }
  void exec_send(const LStmt&, Frame&) override { comm_in_serial("send"); }
  void exec_recv(const LStmt&, Frame&) override { comm_in_serial("recv"); }
  void exec_broadcast(const LStmt&, Frame&) override {
    comm_in_serial("broadcast");
  }
  void exec_allreduce(const LStmt&, Frame&) override {
    comm_in_serial("reduction");
  }
  void apply_redistribution(const Stmt&, ArrayStorage* arr, const DecompSpec*,
                            const DecompSpec* to) override {
    note_distribution(arr, to);
  }
};

}  // namespace

ExecutionBackend::ExecutionBackend(BackendKind kind,
                                   const CostModel& cost_model)
    : kind_(kind),
      cost_(kind == BackendKind::Simulator ? cost_model
                                           : free_of_charge(cost_model)) {}

ExecResult ExecutionBackend::execute(const SpmdProgram& program) const {
  const int P = program.options.n_procs;
  const auto start = std::chrono::steady_clock::now();
  // Lowered once; the P processors share it read-only.
  auto lowered =
      std::make_shared<const LoweredProgram>(lower_program(program.ast));
  auto machine = std::make_shared<Machine>(P, kind_, cost_);
  for (int p = 0; p < P; ++p)
    machine->procs.push_back(std::make_unique<Processor>(*machine, lowered, p));

  machine->scheduler.run(
      P, [&](int p) { machine->procs[static_cast<size_t>(p)]->run(); });
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  ExecResult result;
  result.backend = name();
  result.n_procs = P;
  result.wall_ms = wall_ms;
  for (const auto& proc : machine->procs) {
    const ProcStats& st = proc->stats();
    result.per_proc.push_back(st);
    result.messages += st.sends;
    result.bytes += st.sent_bytes;
    result.sim_time_us = std::max(result.sim_time_us, st.clock_us);
    result.contexts.push_back(proc.get());
  }
  result.remaps_executed = machine->remaps;
  result.remap_bytes = machine->remap_bytes;
  result.keepalive = machine;
  return result;
}

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind) {
  return std::make_unique<ExecutionBackend>(kind);
}

ExecResult run_serial_reference(const SourceProgram& ast) {
  const auto start = std::chrono::steady_clock::now();
  auto proc = std::make_shared<SerialProcess>(
      std::make_shared<const LoweredProgram>(lower_program(ast)));
  proc->run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  ExecResult result;
  result.backend = "serial";
  result.n_procs = 1;
  result.wall_ms = wall_ms;
  result.per_proc.push_back(proc->stats());
  result.contexts.push_back(proc.get());
  result.keepalive = proc;
  return result;
}

}  // namespace fortd
