// Wire protocol of the compile service (fortdd, fortdc -server).
//
// Every message travels as one frame (net/frame.hpp) whose payload is a
// BinaryWriter encoding: a one-byte message type, a request-id varint,
// and then type-specific fields. A connection opens with HELLO carrying
// the client's wire format hash — a fingerprint of the protocol version
// and the artifact serialization format version — and
// the daemon answers HELLO_OK only on an exact match. Version skew
// between a compiler and a long-running daemon is therefore detected at
// the handshake, before any request moves, and the client degrades to a
// local compile.
//
// The request id tags every request a client sends and is echoed
// verbatim in the reply, so a client can match a reply to its request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fortd::remote {

/// Bump on any wire-visible protocol change.
/// v2: request-id varint after the type byte (pipelined connections).
/// v3: compile-as-a-service messages (COMPILE/COMPILE_REPLY/DRAIN/
///     METRICS) for the resident fortdd daemon.
/// v4: COMPILE_REPLY drops its parsed-procedure count: fortdd parses
///     every request.
/// Type bytes 4–13 are reserved (older peers sent cache messages with
/// them) and decode as malformed.
constexpr uint32_t kProtocolVersion = 4;

/// The handshake fingerprint: protocol version mixed with the artifact
/// serialization format version. Either changing makes clients and
/// daemons mutually unintelligible, and this hash is how they find out.
uint64_t remote_wire_format_hash();

enum class MsgType : uint8_t {
  Hello = 1,        // client → daemon: format_hash
  HelloOk = 2,      // daemon → client
  HelloReject = 3,  // daemon → client: text = reason; connection closes
  Error = 14,       // text = reason; daemon closes the connection
  // Compile-as-a-service (fortdd). The HELLO fingerprint covers these
  // like every other message: a client and daemon that disagree on the
  // compile-request layout never get past the handshake.
  Compile = 15,      // text = source, copts = options + deadline
  CompileReply = 16, // creply = status, SPMD text, diagnostics, metrics
  Drain = 17,        // finish in-flight work, refuse new COMPILEs
  DrainOk = 18,      // sent once the last in-flight request completed
  Metrics = 19,      //
  MetricsOk = 20,    // text = service metrics JSON
};

/// Compile options as they travel in a COMPILE request — the subset of
/// CodegenOptions/LintOptions that changes the *output*, plus the
/// request deadline. The schedule-only knob (jobs) stays server-side
/// because it is digest-neutral by contract.
struct CompileOptionsWire {
  uint32_t n_procs = 4;
  uint8_t strategy = 0;    // static_cast<uint8_t>(fortd::Strategy)
  uint8_t dyn_decomp = 3;  // static_cast<uint8_t>(fortd::DynDecompOpt)
  uint8_t analyze = 0;     // run the lint checkers + SPMD verifier
  uint8_t want_lint_json = 0;  // serialize findings as JSON in the reply
  uint8_t want_timings = 0;    // include the per-request timings JSON
  /// Total budget the client grants this request, queue wait included;
  /// a request still queued when it expires is dropped, not compiled.
  /// 0 = use the daemon's default.
  uint32_t deadline_ms = 0;
};

/// Terminal status of one COMPILE request. Everything except Ok and
/// CompileFail is a *daemon* condition: the client degrades to a local
/// in-process compile — a daemon problem is never a compile error.
enum class CompileStatus : uint8_t {
  Ok = 0,
  CompileFail = 1,       // CompileError: diagnostics carry the message
  Rejected = 2,          // admission control: queue full
  DeadlineExpired = 3,   // spent its whole deadline waiting in queue
  Draining = 4,          // daemon is shutting down gracefully
};

/// Body of a COMPILE_REPLY.
struct CompileReplyWire {
  uint8_t status = 0;  // CompileStatus
  uint32_t findings = 0;           // lint warnings + verifier diagnostics
  uint32_t generated = 0;          // procedures that ran codegen
  uint32_t summaries_computed = 0; // procedures that ran local analysis
  std::string spmd;        // generated SPMD listing (status Ok)
  std::string diagnostics; // human-readable block for the client's stderr
  std::string lint_json;   // only when want_lint_json
  std::string timings_json; // per-request service metrics (want_timings)
};

/// One decoded protocol message. Fields beyond `type` are meaningful only
/// for the message types annotated above; the codec writes and reads
/// exactly the fields each type defines.
struct WireMessage {
  MsgType type = MsgType::Error;
  uint64_t request_id = 0;  // echoed verbatim in the reply; 0 in handshake
  uint64_t format_hash = 0;  // Hello only
  std::string text;
  CompileOptionsWire copts;   // Compile only
  CompileReplyWire creply;    // CompileReply only
};

/// Daemon-side handshake step of fortdd: given the first decoded message
/// on a connection, fill `reply` and say how the connection proceeds. Protocol = not a HELLO at all (drop without
/// replying); Reject = fingerprint mismatch (send reply, then close).
enum class HelloOutcome { Ok, Reject, Protocol };
HelloOutcome process_hello(const WireMessage& msg, uint64_t expected_hash,
                           WireMessage* reply);

/// Serialize `m` into a frame payload (not yet length-prefixed).
std::vector<uint8_t> encode_message(const WireMessage& m);

/// Decode one frame payload; nullopt on any structural problem (unknown
/// or reserved type, truncation, trailing bytes) — the BinaryReader
/// discipline — and on a COMPILE whose n_procs is 0 or exceeds an int,
/// or whose strategy or dyn_decomp lies outside its enum.
std::optional<WireMessage> decode_message(const std::vector<uint8_t>& frame);

}  // namespace fortd::remote
