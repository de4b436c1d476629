// CompileService — the resident compile daemon behind fortdd.
//
// One net::ServerLoop thread accepts connections and decodes COMPILE /
// DRAIN / METRICS requests (HELLO-fingerprinted exactly like the remote
// cache protocol: a client with a different wire or artifact format
// never gets past the handshake). Admission control happens on the loop
// thread: a bounded FIFO queue takes the request (Rejected when full,
// Draining during shutdown), and a fixed set of executor threads
// dequeues in arrival order — fair FIFO, no client can starve another —
// checks the request's deadline (a request that spent its whole budget
// queued is answered DeadlineExpired, not compiled), and compiles.
//
// The compile itself runs inside a per-option-set Session whose Compiler
// persists across requests and compiles the request's source with
// Compiler::compile_source, as fortdc does: its CompilationCache,
// IpaSummaryCache, alias maps, and clone sets stay hot, so an unchanged
// program re-submitted to a warm daemon is parsed again but computes 0
// summaries and regenerates 0 procedures.
// All sessions share one ThreadPool (concurrent requests split the
// machine's workers; see ThreadPool's concurrent-batch contract) and one
// ContentStore over the cache directory, which keeps a restarted daemon
// warm from disk.
//
// Graceful drain: drain() (or a DRAIN request) stops admission, lets the
// queue and in-flight requests finish, then answers DrainOk to every
// drain requester — the fortdd SIGTERM path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/server_loop.hpp"
#include "remote/protocol.hpp"
#include "service/session.hpp"
#include "support/thread_pool.hpp"

namespace fortd::service {

struct ServiceOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral (tests); fortdd defaults to 4816
  /// Code-generation parallelism per compile, drawn from one shared pool.
  int jobs = 1;
  /// Concurrent compiles (executor threads). Bounds in-flight work.
  int executors = 2;
  /// Queued-but-not-started requests beyond which COMPILEs are Rejected.
  size_t max_queue = 64;
  /// Distinct option-set Compilers kept resident (LRU beyond this).
  size_t max_sessions = 8;
  /// Directory of the ContentStore every session shares ("" = the
  /// sessions are memory-only and a restart starts cold).
  std::string cache_dir;
  uint64_t cache_max_bytes = 256ull << 20;
  /// Applied to requests that carry deadline_ms == 0 (0 = no deadline).
  uint32_t default_deadline_ms = 0;
  /// Nonzero: handshake fingerprint override (tests provoke skew).
  uint64_t format_hash_override = 0;
  /// Test hook, run by an executor right before it starts compiling.
  std::function<void()> before_compile;
};

class CompileService {
 public:
  explicit CompileService(ServiceOptions options);
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Bind, spawn the loop thread and the executors. False + reason on
  /// failure.
  bool start(std::string* err = nullptr);
  /// Refuse new COMPILEs and block until the queue and every in-flight
  /// request finished (the SIGTERM path). Idempotent.
  void drain();
  /// Join everything and close every connection. Does not wait for
  /// queued work — call drain() first for a graceful exit.
  void stop();

  bool running() const { return loop_.running(); }
  int port() const { return loop_.port(); }

  /// Aggregate service metrics as stable JSON (also the METRICS reply):
  /// request counts by status, queue-wait and per-phase totals, in-flight
  /// and queue peaks, session-cache counters, connection counters.
  std::string metrics_json() const;

 private:
  using ConnId = net::ServerLoop::ConnId;
  using Clock = std::chrono::steady_clock;

  struct Job {
    ConnId conn = 0;
    uint64_t request_id = 0;
    std::string source;
    remote::CompileOptionsWire copts;
    Clock::time_point enqueued;
    Clock::time_point deadline;  // meaningful when has_deadline
    bool has_deadline = false;
  };

  void on_cycle(std::vector<net::ServerLoop::InFrame>& frames);
  void executor_loop();
  /// Compile one dequeued job and send its reply.
  void run_job(Job& job, double queue_ms);
  void send_reply(const Job& job, remote::CompileReplyWire creply,
                  remote::CompileStatus status);
  /// DrainOk everyone waiting, if the service is idle. Caller holds mu_.
  void flush_drain_waiters_locked();

  ServiceOptions options_;
  net::ServerLoop loop_;
  ThreadPool pool_;
  std::unique_ptr<ContentStore> store_;  // null without a cache dir
  SessionCache sessions_;

  std::map<ConnId, bool> hello_done_;  // loop thread only

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // executors wait for jobs
  std::condition_variable drain_cv_;  // drain() waits for idle
  std::deque<Job> queue_;
  std::vector<std::pair<ConnId, uint64_t>> drain_waiters_;
  bool draining_ = false;
  bool stop_ = false;
  int in_flight_ = 0;
  std::vector<std::thread> executors_;

  struct Metrics {
    uint64_t requests = 0;
    uint64_t ok = 0;
    uint64_t compile_fail = 0;
    uint64_t rejected = 0;
    uint64_t deadline_expired = 0;
    uint64_t draining = 0;
    uint64_t handshake_rejects = 0;
    uint64_t protocol_errors = 0;
    int in_flight_peak = 0;
    size_t queue_peak = 0;
    double queue_ms_total = 0.0;
    double queue_ms_max = 0.0;
    double parse_ms_total = 0.0;
    double compile_ms_total = 0.0;
    uint64_t reply_bytes_total = 0;
  };
  Metrics metrics_;  // guarded by mu_
};

}  // namespace fortd::service
