#include "remote/protocol.hpp"

#include <limits>

#include "codegen/options.hpp"
#include "support/serialize.hpp"

namespace fortd::remote {

uint64_t remote_wire_format_hash() {
  const uint32_t parts[2] = {kProtocolVersion, kSerializeFormatVersion};
  return fnv1a(reinterpret_cast<const uint8_t*>(parts), sizeof(parts));
}

std::vector<uint8_t> encode_message(const WireMessage& m) {
  BinaryWriter w;
  w.u8(static_cast<uint8_t>(m.type));
  w.u64(m.request_id);
  switch (m.type) {
    case MsgType::Hello:
      w.u64(m.format_hash);
      break;
    case MsgType::HelloOk:
      break;
    case MsgType::HelloReject:
    case MsgType::Error:
      w.str(m.text);
      break;
    case MsgType::Compile:
      w.str(m.text);
      w.u64(m.copts.n_procs);
      w.u8(m.copts.strategy);
      w.u8(m.copts.dyn_decomp);
      w.u8(m.copts.analyze);
      w.u8(m.copts.want_lint_json);
      w.u8(m.copts.want_timings);
      w.u64(m.copts.deadline_ms);
      break;
    case MsgType::CompileReply:
      w.u8(m.creply.status);
      w.u64(m.creply.findings);
      w.u64(m.creply.generated);
      w.u64(m.creply.summaries_computed);
      w.str(m.creply.spmd);
      w.str(m.creply.diagnostics);
      w.str(m.creply.lint_json);
      w.str(m.creply.timings_json);
      break;
    case MsgType::Drain:
    case MsgType::DrainOk:
    case MsgType::Metrics:
      break;
    case MsgType::MetricsOk:
      w.str(m.text);
      break;
  }
  return w.take();
}

std::optional<WireMessage> decode_message(const std::vector<uint8_t>& frame) {
  BinaryReader r(frame);
  WireMessage m;
  const uint8_t type = r.u8();
  const bool handshake = type >= static_cast<uint8_t>(MsgType::Hello) &&
                         type <= static_cast<uint8_t>(MsgType::HelloReject);
  const bool service = type >= static_cast<uint8_t>(MsgType::Error) &&
                       type <= static_cast<uint8_t>(MsgType::MetricsOk);
  if (!handshake && !service) return std::nullopt;
  m.type = static_cast<MsgType>(type);
  m.request_id = r.u64();
  switch (m.type) {
    case MsgType::Hello:
      m.format_hash = r.u64();
      break;
    case MsgType::HelloOk:
      break;
    case MsgType::HelloReject:
    case MsgType::Error:
      m.text = r.str();
      break;
    case MsgType::Compile: {
      m.text = r.str();
      const uint64_t n_procs = r.u64();
      m.copts.strategy = r.u8();
      m.copts.dyn_decomp = r.u8();
      m.copts.analyze = r.u8();
      m.copts.want_lint_json = r.u8();
      m.copts.want_timings = r.u8();
      m.copts.deadline_ms = static_cast<uint32_t>(r.u64());
      // Options no Compiler accepts make the request malformed, as an
      // out-of-range DistKind does in read_dist_spec.
      if (n_procs == 0 || n_procs > std::numeric_limits<int>::max() ||
          m.copts.strategy >
              static_cast<uint8_t>(Strategy::RuntimeResolution) ||
          m.copts.dyn_decomp > static_cast<uint8_t>(DynDecompOpt::Full))
        r.fail();
      m.copts.n_procs = static_cast<uint32_t>(n_procs);
      break;
    }
    case MsgType::CompileReply:
      m.creply.status = r.u8();
      m.creply.findings = static_cast<uint32_t>(r.u64());
      m.creply.generated = static_cast<uint32_t>(r.u64());
      m.creply.summaries_computed = static_cast<uint32_t>(r.u64());
      m.creply.spmd = r.str();
      m.creply.diagnostics = r.str();
      m.creply.lint_json = r.str();
      m.creply.timings_json = r.str();
      break;
    case MsgType::Drain:
    case MsgType::DrainOk:
    case MsgType::Metrics:
      break;
    case MsgType::MetricsOk:
      m.text = r.str();
      break;
  }
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

HelloOutcome process_hello(const WireMessage& msg, uint64_t expected_hash,
                           WireMessage* reply) {
  if (msg.type != MsgType::Hello) return HelloOutcome::Protocol;
  if (msg.format_hash != expected_hash) {
    reply->type = MsgType::HelloReject;
    reply->text = "wire format mismatch";
    return HelloOutcome::Reject;
  }
  reply->type = MsgType::HelloOk;
  return HelloOutcome::Ok;
}

}  // namespace fortd::remote
