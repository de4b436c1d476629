#include "service/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstdlib>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace fortd::service {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

bool send_message(net::Socket& sock, const remote::WireMessage& msg,
                  Clock::time_point deadline, std::string* reason) {
  std::vector<uint8_t> framed;
  if (!net::encode_frame(framed, remote::encode_message(msg))) {
    if (reason) *reason = "request exceeds frame ceiling";
    return false;
  }
  const auto st =
      sock.send_all(framed.data(), framed.size(), remaining_ms(deadline));
  if (st != net::IoStatus::Ok) {
    if (reason)
      *reason = st == net::IoStatus::Timeout ? "send timed out"
                                             : "connection lost during send";
    return false;
  }
  return true;
}

std::optional<remote::WireMessage> recv_message(net::Socket& sock,
                                                net::FrameDecoder& decoder,
                                                Clock::time_point deadline,
                                                std::string* reason) {
  for (;;) {
    if (auto frame = decoder.next()) {
      auto msg = remote::decode_message(*frame);
      if (!msg && reason) *reason = "malformed reply";
      return msg;
    }
    if (decoder.failed()) {
      if (reason) *reason = "corrupt reply stream";
      return std::nullopt;
    }
    const int left = remaining_ms(deadline);
    if (left <= 0) {
      if (reason) *reason = "reply timed out";
      return std::nullopt;
    }
    uint8_t buf[4096];
    size_t got = 0;
    const auto st = sock.recv_some(buf, sizeof(buf), got, left);
    if (st == net::IoStatus::Closed && got == 0) {
      if (reason) *reason = "daemon closed the connection";
      return std::nullopt;
    }
    if (st == net::IoStatus::Error) {
      if (reason) *reason = "connection error";
      return std::nullopt;
    }
    if (st == net::IoStatus::Timeout) {
      if (reason) *reason = "reply timed out";
      return std::nullopt;
    }
    decoder.feed(std::string(reinterpret_cast<const char*>(buf), got));
  }
}

}  // namespace

std::optional<long long> parse_int_in(const std::string& text, long long lo,
                                      long long hi) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return std::nullopt;
  return v;
}

std::optional<ClientOptions> parse_server_endpoint(const std::string& spec) {
  ClientOptions opts;
  const auto colon = spec.rfind(':');
  if (colon != std::string::npos && colon > 0)
    opts.host = spec.substr(0, colon);
  const auto port = parse_int_in(
      colon == std::string::npos ? spec : spec.substr(colon + 1), 1, 65535);
  if (!port) return std::nullopt;
  opts.port = static_cast<int>(*port);
  return opts;
}

std::optional<remote::WireMessage> CompileClient::roundtrip(
    const remote::WireMessage& req, std::string* reason) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.timeout_ms);
  std::string err;
  auto sock = net::connect_to(options_.host, options_.port,
                              remaining_ms(deadline), &err);
  if (!sock) {
    if (reason) *reason = err.empty() ? "daemon unreachable" : err;
    return std::nullopt;
  }

  remote::WireMessage hello;
  hello.type = remote::MsgType::Hello;
  hello.format_hash = options_.format_hash_override
                          ? options_.format_hash_override
                          : remote::remote_wire_format_hash();
  if (!send_message(*sock, hello, deadline, reason)) return std::nullopt;
  net::FrameDecoder decoder;
  auto hello_reply = recv_message(*sock, decoder, deadline, reason);
  if (!hello_reply) return std::nullopt;
  if (hello_reply->type != remote::MsgType::HelloOk) {
    if (reason)
      *reason = hello_reply->type == remote::MsgType::HelloReject
                    ? "wire format mismatch (" + hello_reply->text + ")"
                    : "unexpected handshake reply";
    return std::nullopt;
  }

  if (!send_message(*sock, req, deadline, reason)) return std::nullopt;
  return recv_message(*sock, decoder, deadline, reason);
}

std::optional<remote::CompileReplyWire> CompileClient::compile(
    const std::string& source, const remote::CompileOptionsWire& copts,
    std::string* reason) {
  remote::WireMessage req;
  req.type = remote::MsgType::Compile;
  req.request_id = 1;
  req.text = source;
  req.copts = copts;
  // The daemon-side deadline defaults to the transport budget, so a
  // request this client already abandoned is not compiled on its behalf.
  if (req.copts.deadline_ms == 0)
    req.copts.deadline_ms = static_cast<uint32_t>(options_.timeout_ms);
  auto reply = roundtrip(req, reason);
  if (!reply) return std::nullopt;
  if (reply->type != remote::MsgType::CompileReply) {
    if (reason) *reason = "unexpected reply type";
    return std::nullopt;
  }
  switch (static_cast<remote::CompileStatus>(reply->creply.status)) {
    case remote::CompileStatus::Ok:
    case remote::CompileStatus::CompileFail:
      return std::move(reply->creply);
    case remote::CompileStatus::Rejected:
      if (reason) *reason = "daemon at capacity";
      return std::nullopt;
    case remote::CompileStatus::DeadlineExpired:
      if (reason) *reason = "request deadline expired in the daemon queue";
      return std::nullopt;
    case remote::CompileStatus::Draining:
      if (reason) *reason = "daemon is draining";
      return std::nullopt;
  }
  if (reason) *reason = "unknown reply status";
  return std::nullopt;
}

std::optional<std::string> CompileClient::fetch_metrics(std::string* reason) {
  remote::WireMessage req;
  req.type = remote::MsgType::Metrics;
  req.request_id = 1;
  auto reply = roundtrip(req, reason);
  if (!reply) return std::nullopt;
  if (reply->type != remote::MsgType::MetricsOk) {
    if (reason) *reason = "unexpected reply type";
    return std::nullopt;
  }
  return std::move(reply->text);
}

bool CompileClient::drain(std::string* reason) {
  remote::WireMessage req;
  req.type = remote::MsgType::Drain;
  req.request_id = 1;
  auto reply = roundtrip(req, reason);
  if (!reply) return false;
  if (reply->type != remote::MsgType::DrainOk) {
    if (reason) *reason = "unexpected reply type";
    return false;
  }
  return true;
}

}  // namespace fortd::service
