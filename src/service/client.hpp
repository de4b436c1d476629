// CompileClient — fortdc's side of -server: ship source + options to a
// resident fortdd daemon, get the generated SPMD text, diagnostics, and
// per-request timings back.
//
// Strictly best-effort: every failure mode — refused connection,
// handshake skew, timeout, garbage, or a daemon that answers Rejected /
// DeadlineExpired / Draining — comes back as nullopt with a one-line
// reason, and the caller degrades to a local in-process compile. A
// daemon problem is never a compile error. The only reply that is
// authoritative is Ok or CompileFail: those reflect the program itself,
// and the same source would succeed or fail identically compiled
// locally.
#pragma once

#include <optional>
#include <string>

#include "remote/protocol.hpp"

namespace fortd::service {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 4816;
  /// Round-trip budget: connect + handshake + compile + reply.
  int timeout_ms = 30000;
  /// Nonzero: sent in HELLO instead of remote_wire_format_hash() (tests
  /// provoke the version-skew rejection path with this).
  uint64_t format_hash_override = 0;
};

/// `text` as a whole decimal number in [lo, hi]; nullopt when it is
/// empty, has trailing characters or lies outside the range. Parses the
/// numeric flags of fortdc and fortdd and the endpoint port.
std::optional<long long> parse_int_in(const std::string& text, long long lo,
                                      long long hi);

/// Parse "host:port" (host optional: ":4816" and "4816" also work).
/// nullopt unless the port is a whole decimal number in 1..65535.
std::optional<ClientOptions> parse_server_endpoint(const std::string& spec);

class CompileClient {
 public:
  explicit CompileClient(ClientOptions options) : options_(std::move(options)) {}

  /// One COMPILE round trip. A reply with status Ok or CompileFail is
  /// returned; every daemon-side condition (unreachable, skew, timeout,
  /// Rejected, DeadlineExpired, Draining) yields nullopt with `reason`
  /// set — the caller's cue to compile locally.
  std::optional<remote::CompileReplyWire> compile(
      const std::string& source, const remote::CompileOptionsWire& copts,
      std::string* reason);

  /// One METRICS round trip: the daemon's service metrics JSON.
  std::optional<std::string> fetch_metrics(std::string* reason);

  /// One DRAIN round trip: true once the daemon finished its in-flight
  /// work (fortdd-initiated shutdown can be awaited from a script).
  bool drain(std::string* reason);

 private:
  /// Connect + HELLO + `req`, then await the matching reply under the
  /// deadline.
  std::optional<remote::WireMessage> roundtrip(const remote::WireMessage& req,
                                               std::string* reason);

  ClientOptions options_;
};

}  // namespace fortd::service
