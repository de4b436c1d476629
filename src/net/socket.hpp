// Minimal POSIX TCP wrapper for the compile service and its client
// (service/compile_service.hpp, service/client.hpp).
//
// Everything is deadline-driven: send_all/recv_some take a millisecond
// budget and poll() inside it, so a stalled peer surfaces as
// IoStatus::Timeout instead of a hung compiler. No call ever raises
// SIGPIPE (MSG_NOSIGNAL) or throws; errors come back as status codes and
// the caller decides whether to retry, degrade, or drop the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace fortd::net {

enum class IoStatus {
  Ok,       // the full request completed within the deadline
  Timeout,  // deadline expired first
  Closed,   // orderly peer shutdown (EOF on read, EPIPE on write)
  Error,    // any other socket error
};

/// RAII file-descriptor wrapper (move-only, closed on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Write all `n` bytes within `deadline_ms` (total budget, not
  /// per-chunk). The socket may be blocking or not; progress is gated on
  /// poll(POLLOUT).
  IoStatus send_all(const uint8_t* data, size_t n, int deadline_ms);

  /// Read *up to* `n` bytes into `buf`, blocking at most `deadline_ms`
  /// for the first byte; `got` receives the byte count (0 with Closed on
  /// EOF).
  IoStatus recv_some(uint8_t* buf, size_t n, size_t& got, int deadline_ms);

  /// Drain whatever is immediately readable without blocking; appends to
  /// `out`. Ok = would-block (nothing more right now), Closed = EOF.
  IoStatus recv_available(std::string& out);

  /// Push as much of data[0..n) as the kernel accepts right now without
  /// blocking; `sent` receives the byte count (the daemon's poll loop
  /// needs byte-accurate partial writes to keep its streams in sync).
  IoStatus send_nonblocking(const uint8_t* data, size_t n, size_t& sent);

  void set_nonblocking();

 private:
  int fd_ = -1;
};

/// Blocking-with-deadline TCP connect. `host` is a dotted quad or a name
/// resolvable by getaddrinfo (AF_INET). nullopt on refusal, timeout, or
/// resolution failure; `err`, when non-null, receives a reason.
std::optional<Socket> connect_to(const std::string& host, int port,
                                 int timeout_ms, std::string* err = nullptr);

/// A listening TCP socket (the daemon's accept side).
class Listener {
 public:
  /// Bind + listen on host:port (port 0 picks an ephemeral port,
  /// readable afterwards via port()). False on failure.
  bool listen_on(const std::string& host, int port, std::string* err = nullptr);

  /// Accept one pending connection, already set nonblocking; nullopt when
  /// none is pending.
  std::optional<Socket> accept_conn();

  bool valid() const { return sock_.valid(); }
  int fd() const { return sock_.fd(); }
  int port() const { return port_; }
  void close() { sock_.close(); }

 private:
  Socket sock_;
  int port_ = 0;
};

}  // namespace fortd::net
