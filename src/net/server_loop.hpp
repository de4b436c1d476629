// Single-threaded poll()-loop server skeleton — the
// accept/FrameDecoder/output-buffer connection plumbing of the compile
// service (fortdd).
//
// One service thread polls the listening socket, every live connection,
// and a self-wake pipe. Readable sockets drain into per-connection
// FrameDecoders; the complete frames gathered in one cycle are handed to
// the cycle handler (on the loop thread). Replies are queued per
// connection — from the handler itself or, via the thread-safe send(),
// from any other thread (a compile executor finishing a request) — and
// drained under POLLOUT. Connections are independent: a client that
// stalls mid-frame or sends garbage affects only itself.
//
// A peer that disappears while a reply is still queued (EOF, EPIPE,
// reset, poll error) is *reaped and counted* (disconnects_mid_reply), never
// escalated: sockets write with MSG_NOSIGNAL so no SIGPIPE is raised,
// and the loop keeps serving every other connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace fortd::net {

class ServerLoop {
 public:
  /// Stable handle for one client connection (never reused).
  using ConnId = uint64_t;

  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;     // 0 = ephemeral (tests)
    int poll_ms = 50; // poll() timeout; bounds shutdown latency
  };

  /// One complete frame payload received from a connection.
  struct InFrame {
    ConnId conn = 0;
    std::vector<uint8_t> payload;
  };

  /// Invoked on the loop thread once per poll cycle that yielded frames.
  /// The handler may call send()/close_after_flush()/drop() synchronously;
  /// effects apply before this cycle's output drain, so an inline reply
  /// still goes out the same cycle it was computed.
  using CycleHandler = std::function<void(std::vector<InFrame>&)>;
  /// Invoked on the loop thread when a connection is reaped, after its
  /// socket closed — the owner's chance to discard per-connection state.
  using ClosedHandler = std::function<void(ConnId)>;

  ServerLoop() = default;
  ~ServerLoop();

  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  void set_cycle_handler(CycleHandler handler) { on_cycle_ = std::move(handler); }
  void set_closed_handler(ClosedHandler handler) { on_closed_ = std::move(handler); }

  /// Bind and spawn the service thread. False (with reason) on failure.
  bool start(const Options& options, std::string* err = nullptr);
  /// Idempotent; joins the service thread and closes every connection.
  void stop();

  bool running() const { return running_.load(); }
  /// The bound port (after start(); meaningful with port 0 in options).
  int port() const { return listener_.port(); }

  /// Queue `payload` as one frame on `conn`'s output buffer. Thread-safe
  /// (wakes the loop when called off-thread). False when the payload
  /// exceeds the frame ceiling or the connection is already gone — the
  /// latter counted as a dropped reply.
  bool send(ConnId conn, std::vector<uint8_t> payload);
  /// Close `conn` once its output buffer drains (thread-safe).
  void close_after_flush(ConnId conn);
  /// Drop `conn` at the next cycle, discarding queued output (thread-safe).
  void drop(ConnId conn);

  struct Counters {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;     // reaped while serving
    uint64_t frame_errors = 0;           // decoder sticky-fail drops
    uint64_t disconnects_mid_reply = 0;  // peer gone with a reply queued
    uint64_t replies_dropped = 0;        // send() to an already-gone conn
  };
  Counters counters() const;

 private:
  struct Conn {
    Socket sock;
    FrameDecoder decoder;
    bool closing = false;  // close once outbuf drains
    bool doomed = false;   // drop this cycle, output discarded
    std::string outbuf;    // encoded frames awaiting POLLOUT
  };

  void serve_loop();
  /// Move cross-thread sends/closes into connection state. Loop thread.
  void apply_pending_locked();
  /// Drain one readable connection; false = drop it.
  bool read_conn(Conn& conn, ConnId id, std::vector<InFrame>& frames);

  Options options_;
  CycleHandler on_cycle_;
  ClosedHandler on_closed_;
  Listener listener_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int wake_rd_ = -1, wake_wr_ = -1;  // self-pipe: off-thread send() wakeup

  // Touched only by the loop thread; cross-thread requests arrive
  // through pending_ below.
  std::map<ConnId, std::unique_ptr<Conn>> conns_;
  ConnId next_id_ = 1;

  struct PendingOp {
    ConnId conn = 0;
    std::vector<uint8_t> framed;  // empty = close/drop request
    bool drop = false;            // with empty framed: drop vs close_after_flush
  };
  mutable std::mutex mu_;  // guards pending_, live_, counters_
  std::vector<PendingOp> pending_;
  std::vector<ConnId> live_;  // snapshot send() checks before queueing
  Counters counters_;
};

}  // namespace fortd::net
