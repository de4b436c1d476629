// Compile-as-a-service tests: the frame codec and wire protocol, the
// resident fortdd daemon (CompileService), its thin client and endpoint
// parser, warm-session recompilation guarantees on every cache tier and
// across a cache directory shared by fortdc and fortdd, admission
// control, graceful drain, the client against a scripted daemon that
// misbehaves in every way it can, fortdc -server end to end, and the
// concurrent-batch ThreadPool contract the shared-pool design rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/programs.hpp"
#include "codegen/spmd_printer.hpp"
#include "cache_dir.hpp"
#include "driver/compiler.hpp"
#include "example_programs.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/compile_service.hpp"

namespace fortd {
namespace {

using test::fresh_cache_dir;

/// One CompileService over a fresh cache directory on an ephemeral port.
struct TestService {
  explicit TestService(const std::string& tag,
                       service::ServiceOptions options = {}) {
    if (options.cache_dir.empty())
      options.cache_dir = fresh_cache_dir("svc_" + tag);
    options.port = 0;
    svc = std::make_unique<service::CompileService>(std::move(options));
    std::string err;
    started = svc->start(&err);
    EXPECT_TRUE(started) << err;
  }

  service::CompileClient client(int timeout_ms = 20000) {
    service::ClientOptions copt;
    copt.port = svc->port();
    copt.timeout_ms = timeout_ms;
    return service::CompileClient(copt);
  }

  std::unique_ptr<service::CompileService> svc;
  bool started = false;
};

remote::CompileOptionsWire wire_options(int n_procs = 4) {
  remote::CompileOptionsWire copts;
  copts.n_procs = static_cast<uint32_t>(n_procs);
  return copts;
}

/// The local reference: what a plain in-process fortdc compile prints.
std::string local_spmd(const std::string& src, int n_procs = 4) {
  CodegenOptions opt;
  opt.n_procs = n_procs;
  Compiler compiler(opt);
  return print_spmd(compiler.compile_source(src).spmd);
}

uint64_t json_uint(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return ~0ull;
  return std::strtoull(json.c_str() + pos + key.size() + 3, nullptr, 10);
}

/// The number after `"key":` in `json`; -1 when the key is absent.
double json_double(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + key.size() + 3, nullptr);
}

/// One whole frame from `sock` within `timeout_ms`; nullopt on EOF, a
/// socket error, a corrupt stream or the timeout.
std::optional<std::vector<uint8_t>> read_frame(net::Socket& sock,
                                               net::FrameDecoder& decoder,
                                               int timeout_ms = 10000) {
  for (;;) {
    if (auto frame = decoder.next()) return frame;
    if (decoder.failed()) return std::nullopt;
    uint8_t buf[4096];
    size_t got = 0;
    if (sock.recv_some(buf, sizeof(buf), got, timeout_ms) != net::IoStatus::Ok)
      return std::nullopt;
    decoder.feed(buf, got);
  }
}

std::optional<remote::WireMessage> read_message(net::Socket& sock,
                                                net::FrameDecoder& decoder,
                                                int timeout_ms = 10000) {
  auto frame = read_frame(sock, decoder, timeout_ms);
  if (!frame) return std::nullopt;
  return remote::decode_message(*frame);
}

bool write_message(net::Socket& sock, const remote::WireMessage& msg) {
  std::vector<uint8_t> framed;
  return net::encode_frame(framed, remote::encode_message(msg)) &&
         sock.send_all(framed.data(), framed.size(), 10000) ==
             net::IoStatus::Ok;
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(FrameCodec, DecodesByteAtATime) {
  std::vector<uint8_t> payload;
  for (int i = 0; i < 300; ++i) payload.push_back(static_cast<uint8_t>(i));
  std::vector<uint8_t> wire;
  net::encode_frame(wire, payload);
  net::encode_frame(wire, {});  // an empty frame is legal

  net::FrameDecoder dec;
  std::vector<std::vector<uint8_t>> frames;
  for (uint8_t b : wire) {
    dec.feed(&b, 1);
    while (auto f = dec.next()) frames.push_back(*f);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], payload);
  EXPECT_TRUE(frames[1].empty());
  EXPECT_FALSE(dec.failed());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, CoalescedFramesDecodeInOrder) {
  std::vector<uint8_t> wire;
  for (int i = 0; i < 5; ++i)
    net::encode_frame(wire, std::vector<uint8_t>(i * 10, static_cast<uint8_t>(i)));
  net::FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  for (int i = 0; i < 5; ++i) {
    auto f = dec.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->size(), static_cast<size_t>(i * 10));
  }
  EXPECT_FALSE(dec.next().has_value());
}

TEST(FrameCodec, EncodeRefusesOversizePayload) {
  // The sender must enforce the same ceiling the decoder does: framing an
  // oversize payload would only sticky-fail the receiver and kill the
  // connection as a misleading "garbled reply".
  std::vector<uint8_t> wire;
  std::vector<uint8_t> big(net::kMaxFramePayload + 1);
  EXPECT_FALSE(net::encode_frame(wire, big));
  EXPECT_TRUE(wire.empty()) << "a refused frame must not emit bytes";
  EXPECT_TRUE(net::encode_frame(wire, {1, 2, 3}));
  EXPECT_FALSE(wire.empty());
}

TEST(FrameCodec, OversizedLengthFailsSticky) {
  // Varint for 1 GiB, far above kMaxFramePayload.
  std::vector<uint8_t> wire;
  uint64_t v = 1ull << 30;
  while (v >= 0x80) {
    wire.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  wire.push_back(static_cast<uint8_t>(v));
  net::FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.failed());
  dec.feed(wire.data(), wire.size());  // no-op once failed
  EXPECT_FALSE(dec.next().has_value());
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

TEST(RemoteProtocol, RoundTripsEveryMessageType) {
  using remote::MsgType;
  using remote::WireMessage;
  std::vector<WireMessage> messages;
  {
    WireMessage m;
    m.type = MsgType::Hello;
    m.format_hash = remote::remote_wire_format_hash();
    messages.push_back(m);
  }
  for (MsgType t : {MsgType::HelloOk, MsgType::Drain, MsgType::DrainOk,
                    MsgType::Metrics}) {
    WireMessage m;
    m.type = t;
    messages.push_back(m);
  }
  for (MsgType t : {MsgType::HelloReject, MsgType::Error, MsgType::MetricsOk}) {
    WireMessage m;
    m.type = t;
    m.text = "some reason \"quoted\"";
    messages.push_back(m);
  }
  {
    WireMessage m;
    m.type = MsgType::Compile;
    m.text = "      program p\n      end\n";
    m.copts = {7, 2, 1, 1, 1, 1, 1234};
    messages.push_back(m);
  }
  {
    WireMessage m;
    m.type = MsgType::CompileReply;
    m.creply = {1, 2, 4, 5, "spmd", "diags", "[]", "{}"};
    messages.push_back(m);
  }

  // Every message carries a request id; ids must survive the codec for
  // every type.
  for (size_t i = 0; i < messages.size(); ++i)
    messages[i].request_id = i * 1000003 + 1;

  for (const auto& m : messages) {
    auto decoded = remote::decode_message(remote::encode_message(m));
    ASSERT_TRUE(decoded.has_value())
        << "type " << static_cast<int>(m.type);
    EXPECT_EQ(decoded->type, m.type);
    EXPECT_EQ(decoded->request_id, m.request_id);
    EXPECT_EQ(decoded->format_hash, m.format_hash);
    EXPECT_EQ(decoded->text, m.text);
    const remote::CompileOptionsWire& o = decoded->copts;
    EXPECT_EQ(o.n_procs, m.copts.n_procs);
    EXPECT_EQ(o.strategy, m.copts.strategy);
    EXPECT_EQ(o.dyn_decomp, m.copts.dyn_decomp);
    EXPECT_EQ(o.analyze, m.copts.analyze);
    EXPECT_EQ(o.want_lint_json, m.copts.want_lint_json);
    EXPECT_EQ(o.want_timings, m.copts.want_timings);
    EXPECT_EQ(o.deadline_ms, m.copts.deadline_ms);
    const remote::CompileReplyWire& r = decoded->creply;
    EXPECT_EQ(r.status, m.creply.status);
    EXPECT_EQ(r.findings, m.creply.findings);
    EXPECT_EQ(r.generated, m.creply.generated);
    EXPECT_EQ(r.summaries_computed, m.creply.summaries_computed);
    EXPECT_EQ(r.spmd, m.creply.spmd);
    EXPECT_EQ(r.diagnostics, m.creply.diagnostics);
    EXPECT_EQ(r.lint_json, m.creply.lint_json);
    EXPECT_EQ(r.timings_json, m.creply.timings_json);
  }
}

TEST(RemoteProtocol, RejectsGarbageAndTrailingBytes) {
  EXPECT_FALSE(remote::decode_message({}).has_value());
  EXPECT_FALSE(remote::decode_message({0}).has_value());
  EXPECT_FALSE(remote::decode_message({200}).has_value());
  remote::WireMessage m;
  m.type = remote::MsgType::HelloOk;
  auto bytes = remote::encode_message(m);
  bytes.push_back(0);  // trailing garbage
  EXPECT_FALSE(remote::decode_message(bytes).has_value());
}

TEST(RemoteProtocol, RemovedCacheMessageTypesDecodeAsMalformed) {
  // Type bytes 4..13 carried the removed cache-fleet messages. A frame
  // that is well formed in every other respect must still decode to
  // nothing: a request id and, for good measure, some trailing payload.
  for (uint8_t type = 4; type <= 13; ++type) {
    EXPECT_FALSE(remote::decode_message({type, 1}).has_value())
        << "type " << int(type);
    EXPECT_FALSE(remote::decode_message({type, 1, 0, 0}).has_value())
        << "type " << int(type);
  }
}

TEST(RemoteProtocol, CompileWithOptionsNoCompilerAcceptsIsMalformed) {
  auto decodes = [](const remote::CompileOptionsWire& copts) {
    remote::WireMessage m;
    m.type = remote::MsgType::Compile;
    m.text = "program p\nend\n";
    m.copts = copts;
    return remote::decode_message(remote::encode_message(m)).has_value();
  };
  EXPECT_TRUE(decodes(wire_options()));
  auto bad = wire_options();
  bad.n_procs = 0;
  EXPECT_FALSE(decodes(bad));
  bad.n_procs = 1u << 31;  // no int holds it
  EXPECT_FALSE(decodes(bad));
  bad = wire_options();
  bad.strategy = static_cast<uint8_t>(Strategy::RuntimeResolution) + 1;
  EXPECT_FALSE(decodes(bad));
  bad = wire_options();
  bad.dyn_decomp = static_cast<uint8_t>(DynDecompOpt::Full) + 1;
  EXPECT_FALSE(decodes(bad));
}

// ---------------------------------------------------------------------------
// fortdc -server endpoint parsing
// ---------------------------------------------------------------------------

TEST(ServerEndpoint, ParsesHostAndPortAndRejectsMalformedPorts) {
  auto ep = service::parse_server_endpoint("example:4815");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->host, "example");
  EXPECT_EQ(ep->port, 4815);
  ep = service::parse_server_endpoint("4815");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->host, service::ClientOptions{}.host);
  EXPECT_EQ(ep->port, 4815);
  ep = service::parse_server_endpoint(":4816");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->port, 4816);

  for (const char* bad : {"", "example:", "example:notaport",
                          "example:99999", "example:0", "host:9x",
                          "127.0.0.1:9x", "example:-1"})
    EXPECT_FALSE(service::parse_server_endpoint(bad).has_value()) << bad;
}

// ---------------------------------------------------------------------------
// Warm-session recompilation guarantees (the §8 contract, over a socket)
// ---------------------------------------------------------------------------

TEST(CompileService, WarmRepeatComputesNoSummariesAndRegeneratesNothing) {
  TestService ts("warm_repeat");
  auto client = ts.client();
  const std::string src = bench::fan_out(32, 64);
  const std::string reference = local_spmd(src);

  std::string reason;
  auto first = client.compile(src, wire_options(), &reason);
  ASSERT_TRUE(first) << reason;
  EXPECT_EQ(static_cast<remote::CompileStatus>(first->status),
            remote::CompileStatus::Ok);
  EXPECT_EQ(first->generated, 33u);
  EXPECT_EQ(first->spmd, reference) << "served output must be byte-identical";

  // The repeat against the warm daemon: the source is parsed again (and
  // the parse timed), everything else comes from the session Compiler's
  // hot caches (0 generated, 0 summaries) — and still byte-identical.
  auto copts = wire_options();
  copts.want_timings = 1;
  auto repeat = client.compile(src, copts, &reason);
  ASSERT_TRUE(repeat) << reason;
  EXPECT_EQ(repeat->generated, 0u);
  EXPECT_EQ(repeat->summaries_computed, 0u);
  EXPECT_EQ(repeat->spmd, reference);
  EXPECT_GT(json_double(repeat->timings_json, "parse_ms"), 0.0)
      << repeat->timings_json;
}

TEST(CompileService, OneOfThirtyTwoEditRecompilesExactlyOneProcedure) {
  TestService ts("one_edit");
  auto client = ts.client();
  std::string reason;
  auto warm = client.compile(bench::fan_out(32, 64), wire_options(), &reason);
  ASSERT_TRUE(warm) << reason;

  auto edited = client.compile(bench::fan_out(32, 64, /*edited_leaf=*/1),
                               wire_options(), &reason);
  ASSERT_TRUE(edited) << reason;
  EXPECT_EQ(edited->generated, 1u);
  EXPECT_EQ(edited->summaries_computed, 1u);
  EXPECT_EQ(edited->spmd, local_spmd(bench::fan_out(32, 64, 1)));
}

/// A leaf whose only difference between two versions is one real
/// constant, changed by less than 1/4096.
std::string leaf_with_coefficient(const std::string& coeff) {
  return R"(
      program p
      real a(100)
      integer i
      distribute a(block)
      do i = 1, 100
        a(i) = i
      enddo
      call leaf(a)
      end

      subroutine leaf(a)
      real a(100)
      integer i
      do i = 1, 98
        a(i) = )" + coeff + R"(*a(i+2)
      enddo
      end
)";
}

TEST(RecompilationDigest, SmallRealConstantEditRegeneratesOnEveryTier) {
  // The procedure digest must tell 0.9675 from 0.9674 on every tier: the
  // edit regenerates the leaf (and only the leaf) and the listing prints
  // the new constant, exactly as a cold compile does.
  const std::string before = leaf_with_coefficient("0.9675");
  const std::string after = leaf_with_coefficient("0.9674");
  const std::string reference = local_spmd(after);
  ASSERT_NE(reference.find("0.9674"), std::string::npos) << reference;
  CodegenOptions opt;
  opt.n_procs = 4;

  {  // memory tier: one Compiler across both compiles
    Compiler compiler(opt);
    compiler.compile_source(before);
    CompileResult r = compiler.compile_source(after);
    EXPECT_EQ(r.regenerated, std::vector<std::string>{"leaf"});
    EXPECT_EQ(print_spmd(r.spmd), reference);
  }
  {  // disk tier: a fresh Compiler on the same directory
    const std::string dir = fresh_cache_dir("real_edit_disk");
    Compiler(opt, {}, {}, CacheOptions{dir}).compile_source(before);
    Compiler warm(opt, {}, {}, CacheOptions{dir});
    CompileResult r = warm.compile_source(after);
    EXPECT_EQ(r.regenerated, std::vector<std::string>{"leaf"});
    EXPECT_EQ(print_spmd(r.spmd), reference);
  }
  {  // fortdd: one resident session
    TestService ts("real_edit");
    auto client = ts.client();
    std::string reason;
    ASSERT_TRUE(client.compile(before, wire_options(), &reason)) << reason;
    auto r = client.compile(after, wire_options(), &reason);
    ASSERT_TRUE(r) << reason;
    EXPECT_EQ(r->generated, 1u);
    EXPECT_EQ(r->spmd, reference);
  }
}

TEST(RecompilationDigest, RealConstantEditsRegenerateAtEveryMagnitude) {
  // A fixed-point hash folds every constant below its resolution to one
  // value and overflows on large ones. Hashing the exact bits must tell
  // each of these pairs apart.
  CodegenOptions opt;
  opt.n_procs = 4;
  const std::vector<std::pair<std::string, std::string>> edits = {
      {"0.0001", "0.0002"}, {"1.0e-30", "2.0e-30"}, {"3.0e30", "4.0e30"}};
  for (const auto& [before, after] : edits) {
    Compiler compiler(opt);
    compiler.compile_source(leaf_with_coefficient(before));
    CompileResult r = compiler.compile_source(leaf_with_coefficient(after));
    EXPECT_EQ(r.regenerated, std::vector<std::string>{"leaf"})
        << before << " -> " << after;
    EXPECT_EQ(print_spmd(r.spmd), local_spmd(leaf_with_coefficient(after)))
        << before << " -> " << after;
  }
}

// ---------------------------------------------------------------------------
// Warm equals cold: seeded one-procedure edits over generated programs
// ---------------------------------------------------------------------------

/// What a compile reports: the listing, every finding as JSON, and the
/// verifier's finding count (or the error, when the compile fails).
struct CompileOutputs {
  std::string listing;
  std::string lint_json;
  size_t verify_findings = 0;

  bool operator==(const CompileOutputs&) const = default;
};

std::ostream& operator<<(std::ostream& os, const CompileOutputs& o) {
  return os << o.listing << "\nlint: " << o.lint_json
            << "\nverify findings: " << o.verify_findings;
}

CompileOutputs outputs_of(Compiler& compiler, const std::string& src) {
  CompileOutputs out;
  try {
    CompileResult r = compiler.compile_source(src);
    out.listing = print_spmd(r.spmd);
    out.verify_findings = r.verify.diags.size();
  } catch (const CompileError& e) {
    out.listing = std::string("error: ") + e.what();
  }
  out.lint_json = compiler.last_lint_report().json();
  return out;
}

/// One procedure of a source text: its lines [begin, end) and formals.
struct ProcSpan {
  size_t begin = 0, end = 0;
  std::vector<std::string> formals;
};

std::vector<std::string> split_lines(const std::string& src) {
  std::vector<std::string> lines;
  std::istringstream in(src);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

std::vector<ProcSpan> procedure_spans(const std::vector<std::string>& lines) {
  static const std::regex head(
      R"(^\s*(program|subroutine)\s+\w+\s*(\((.*)\))?)");
  static const std::regex tail(R"(^\s*end\s*$)");
  static const std::regex word(R"(\w+)");
  std::vector<ProcSpan> spans;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lines[i], m, head)) {
      ProcSpan span;
      span.begin = i;
      const std::string formals = m[3];
      for (std::sregex_iterator it(formals.begin(), formals.end(), word), e;
           it != e; ++it)
        span.formals.push_back(it->str());
      spans.push_back(span);
    } else if (std::regex_match(lines[i], tail) && !spans.empty()) {
      spans.back().end = i + 1;
    }
  }
  return spans;
}

enum class EditKind {
  RealConstant,
  Regroup,
  RenameLocal,
  StencilShift,
  InsertStmt
};

const char* edit_name(EditKind kind) {
  switch (kind) {
    case EditKind::RealConstant: return "real constant";
    case EditKind::Regroup: return "regrouped intrinsic";
    case EditKind::RenameLocal: return "renamed local";
    case EditKind::StencilShift: return "stencil shift";
    case EditKind::InsertStmt: return "inserted statement";
  }
  return "?";
}

/// A before/after pair differing in one procedure, or nullopt when the
/// edit does not apply to the procedure at `span`.
std::optional<std::pair<std::string, std::string>> apply_edit(
    const std::vector<std::string>& lines, const ProcSpan& span,
    EditKind kind) {
  static const std::regex assign(R"(^(\s+\w+(\([^=]*\))?\s*=\s*)(.+)$)");
  static const std::regex real(R"(\b(\d+\.\d+)\b)");
  static const std::regex shift(R"(([(,]\s*\w+\s*[+-]\s*)(\d+)(\s*[,)]))");
  static const std::regex decl(R"(^\s*integer\s+(.*)$)");
  std::vector<std::string> before = lines, after = lines;
  for (size_t i = span.begin + 1; i + 1 < span.end; ++i) {
    const std::string& line = lines[i];
    std::smatch m;
    switch (kind) {
      case EditKind::RealConstant:
        if (std::regex_search(line, m, real)) {
          // 1e-4 < 1/4096: below a fixed-point hash's resolution.
          std::ostringstream moved;
          moved.precision(10);
          moved << std::stod(m[1]) + 1e-4;
          after[i] = m.prefix().str() + moved.str() + m.suffix().str();
          return std::make_pair(join_lines(before), join_lines(after));
        }
        break;
      case EditKind::Regroup:
        if (std::regex_match(line, m, assign)) {
          before[i] = m[1].str() + "min(max(" + m[3].str() + ", 3.0), 2.0)";
          after[i] = m[1].str() + "min(max(" + m[3].str() + ", 3.0, 2.0))";
          return std::make_pair(join_lines(before), join_lines(after));
        }
        break;
      case EditKind::RenameLocal:
        if (std::regex_match(line, m, decl)) {
          static const std::regex word(R"(\w+)");
          const std::string names = m[1];
          for (std::sregex_iterator it(names.begin(), names.end(), word), e;
               it != e; ++it) {
            const std::string name = it->str();
            if (std::count(span.formals.begin(), span.formals.end(), name))
              continue;
            const std::regex use("\\b" + name + "\\b");
            for (size_t k = span.begin + 1; k + 1 < span.end; ++k)
              after[k] = std::regex_replace(lines[k], use, name + "r7");
            return std::make_pair(join_lines(before), join_lines(after));
          }
        }
        break;
      case EditKind::StencilShift:
        if (std::regex_search(line, m, shift)) {
          after[i] = m.prefix().str() + m[1].str() +
                     std::to_string(std::stoi(m[2]) + 1) + m[3].str() +
                     m.suffix().str();
          return std::make_pair(join_lines(before), join_lines(after));
        }
        break;
      case EditKind::InsertStmt:
        if (std::regex_match(line, m, assign)) {
          after.insert(after.begin() + static_cast<long>(i) + 1, line);
          return std::make_pair(join_lines(before), join_lines(after));
        }
        break;
    }
  }
  return std::nullopt;
}

TEST(WarmEqualsCold, SeededEditsOnEveryTier) {
  // Each edit changes one procedure. A warm compile of the edited program
  // must report what a cold compile reports, on every cache tier. Source
  // positions are not compared: cached SPMD code keeps the positions it
  // was generated with.
  std::vector<std::pair<std::string, std::string>> programs = {
      {"fan_out", bench::fan_out(5, 64)},
      {"chain_fanout", bench::chain_fanout(3, 3, 64)},
      {"cloning_fanout", bench::cloning_fanout(3, 3, 32)},
      {"call_chain", bench::call_chain(4, 64)},
  };
  for (const examples::Example& ex : examples::kExamples)
    programs.emplace_back(ex.name, ex.source);
  const EditKind kinds[] = {EditKind::RealConstant, EditKind::Regroup,
                            EditKind::RenameLocal, EditKind::StencilShift,
                            EditKind::InsertStmt};

  CodegenOptions opt;
  opt.n_procs = 4;
  LintOptions lint;
  lint.analyze = true;
  lint.verify_spmd = true;
  const std::string dir = fresh_cache_dir("warm_cold_disk");
  TestService ts("warm_cold");
  ASSERT_TRUE(ts.started);
  auto client = ts.client();
  remote::CompileOptionsWire copts = wire_options();
  copts.analyze = 1;
  copts.want_lint_json = 1;

  std::mt19937 rng(20260);  // fixed seed: the same edits on every run
  std::map<EditKind, int> cases;
  for (const auto& [name, src] : programs) {
    const std::vector<std::string> lines = split_lines(src);
    std::vector<ProcSpan> spans = procedure_spans(lines);
    ASSERT_FALSE(spans.empty()) << name;
    for (EditKind kind : kinds) {
      std::shuffle(spans.begin(), spans.end(), rng);
      int applied = 0;
      for (const ProcSpan& span : spans) {
        if (applied == 2) break;
        auto edit = apply_edit(lines, span, kind);
        if (!edit) continue;
        ++applied;
        ++cases[kind];
        const auto& [before, after] = *edit;
        const std::string where = name + ": " + edit_name(kind) + " in " +
                                  lines[span.begin];
        Compiler cold(opt, {}, lint);
        const CompileOutputs expected = outputs_of(cold, after);

        Compiler memory(opt, {}, lint);
        outputs_of(memory, before);
        EXPECT_EQ(outputs_of(memory, after), expected)
            << "memory tier, " << where;

        Compiler disk_before(opt, {}, lint, CacheOptions{dir});
        outputs_of(disk_before, before);
        Compiler disk(opt, {}, lint, CacheOptions{dir});
        EXPECT_EQ(outputs_of(disk, after), expected) << "disk tier, " << where;

        std::string reason;
        ASSERT_TRUE(client.compile(before, copts, &reason)) << reason;
        auto served = client.compile(after, copts, &reason);
        ASSERT_TRUE(served) << reason;
        EXPECT_EQ(served->spmd, expected.listing) << "fortdd, " << where;
        EXPECT_EQ(served->lint_json, expected.lint_json) << "fortdd, " << where;
        const size_t lint_warnings =
            static_cast<size_t>(cold.last_stats().lint_warnings);
        EXPECT_EQ(served->findings, lint_warnings + expected.verify_findings)
            << "fortdd, " << where;
      }
    }
  }
  for (EditKind kind : kinds) EXPECT_GE(cases[kind], 10) << edit_name(kind);
}

TEST(CompileService, RestartedDaemonIsWarmFromDisk) {
  const std::string dir = fresh_cache_dir("svc_restart");
  const std::string src = bench::fan_out(16, 64);
  service::ServiceOptions opt;
  opt.cache_dir = dir;
  {
    TestService ts("restart_a", opt);
    std::string reason;
    auto r = ts.client().compile(src, wire_options(), &reason);
    ASSERT_TRUE(r) << reason;
    EXPECT_EQ(r->generated, 17u);
    ts.svc->drain();
    ts.svc->stop();
  }
  // A fresh process image over the same store: the session tier starts
  // empty, but codegen and summaries come from disk.
  TestService ts("restart_b", opt);
  std::string reason;
  auto r = ts.client().compile(src, wire_options(), &reason);
  ASSERT_TRUE(r) << reason;
  EXPECT_EQ(r->generated, 0u);
  EXPECT_EQ(r->summaries_computed, 0u);
  EXPECT_EQ(r->spmd, local_spmd(src));
}

TEST(CompileService, SessionEvictionKeepsOptionKeyedOutputsCorrect) {
  service::ServiceOptions opt;
  opt.max_sessions = 1;  // every option switch evicts the resident session
  TestService ts("evict", opt);
  auto client = ts.client();
  const std::string src = bench::fan_out(4, 64);

  std::string reason;
  auto at4 = client.compile(src, wire_options(4), &reason);
  ASSERT_TRUE(at4) << reason;
  auto at2 = client.compile(src, wire_options(2), &reason);
  ASSERT_TRUE(at2) << reason;
  auto again4 = client.compile(src, wire_options(4), &reason);
  ASSERT_TRUE(again4) << reason;

  EXPECT_EQ(at4->spmd, local_spmd(src, 4));
  EXPECT_EQ(at2->spmd, local_spmd(src, 2));
  EXPECT_EQ(again4->spmd, at4->spmd);
  const std::string json = ts.svc->metrics_json();
  const auto sessions = json.substr(json.find("\"sessions\""));
  EXPECT_GE(json_uint(sessions, "evictions"), 1u);
}

// fortdc -cache-dir and fortdd -cache-dir read and write one store: the
// digests of a served compile and of a local one must agree, at any jobs.
class ServiceCacheDir : public ::testing::TestWithParam<int> {};

TEST_P(ServiceCacheDir, LocalBuildWarmsTheDaemon) {
  const int jobs = GetParam();
  const std::string tag = "local_warms_daemon_j" + std::to_string(jobs);
  const std::string dir = fresh_cache_dir(tag);
  const std::string src = bench::fan_out(32, 64);
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.jobs = jobs;
  const std::string local = print_spmd(
      Compiler(opt, {}, {}, CacheOptions{dir}).compile_source(src).spmd);

  service::ServiceOptions sopt;
  sopt.cache_dir = dir;
  sopt.jobs = jobs;
  TestService ts(tag, sopt);
  auto client = ts.client();
  std::string reason;
  auto r = client.compile(src, wire_options(), &reason);
  ASSERT_TRUE(r) << reason;
  EXPECT_EQ(r->generated, 0u);
  EXPECT_EQ(r->summaries_computed, 0u);
  EXPECT_EQ(r->spmd, local);

  const std::string edited_src = bench::fan_out(32, 64, /*edited_leaf=*/7);
  auto edited = client.compile(edited_src, wire_options(), &reason);
  ASSERT_TRUE(edited) << reason;
  EXPECT_EQ(edited->generated, 1u);
  EXPECT_EQ(edited->summaries_computed, 1u);
  EXPECT_EQ(edited->spmd, local_spmd(edited_src));
}

TEST_P(ServiceCacheDir, LocalBuildAfterDaemonStartWarmsTheDaemon) {
  // The daemon's store was open before the local compile appended to the
  // pack: its first miss must index those records, or it regenerates
  // every procedure and appends duplicates.
  const int jobs = GetParam();
  const std::string tag = "local_after_daemon_j" + std::to_string(jobs);
  const std::string dir = fresh_cache_dir(tag);
  service::ServiceOptions sopt;
  sopt.cache_dir = dir;
  sopt.jobs = jobs;
  TestService ts(tag, sopt);

  const std::string src = bench::fan_out(32, 64);
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.jobs = jobs;
  const std::string local = print_spmd(
      Compiler(opt, {}, {}, CacheOptions{dir}).compile_source(src).spmd);
  const auto pack = std::filesystem::path(dir) / "pack";
  const auto pack_bytes = std::filesystem::file_size(pack);

  std::string reason;
  auto r = ts.client().compile(src, wire_options(), &reason);
  ASSERT_TRUE(r) << reason;
  EXPECT_EQ(r->generated, 0u);
  EXPECT_EQ(r->summaries_computed, 0u);
  EXPECT_EQ(r->spmd, local);
  ts.svc->drain();
  ts.svc->stop();
  EXPECT_EQ(std::filesystem::file_size(pack), pack_bytes);
}

TEST_P(ServiceCacheDir, DaemonBuildWarmsALocalCompile) {
  const int jobs = GetParam();
  const std::string tag = "daemon_warms_local_j" + std::to_string(jobs);
  const std::string dir = fresh_cache_dir(tag);
  const std::string src = bench::fan_out(32, 64);
  std::string served;
  {
    service::ServiceOptions sopt;
    sopt.cache_dir = dir;
    sopt.jobs = jobs;
    TestService ts(tag, sopt);
    std::string reason;
    auto r = ts.client().compile(src, wire_options(), &reason);
    ASSERT_TRUE(r) << reason;
    EXPECT_EQ(r->generated, 33u);
    served = r->spmd;
    ts.svc->drain();
    ts.svc->stop();
  }
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.jobs = jobs;
  Compiler compiler(opt, {}, {}, CacheOptions{dir});
  CompileResult warm = compiler.compile_source(src);
  EXPECT_EQ(warm.stats.generated, 0);
  EXPECT_EQ(warm.stats.summaries_computed, 0);
  EXPECT_EQ(print_spmd(warm.spmd), served);
}

INSTANTIATE_TEST_SUITE_P(Jobs, ServiceCacheDir, ::testing::Values(1, 4));

TEST(CompileService, SessionsShareOneStore) {
  // A summary is keyed by hash_procedure alone, so no option changes it:
  // a session must find the summaries another session stored, even when
  // it opened before they were written, and never append them again.
  const std::string dir = fresh_cache_dir("shared_store");
  const std::string first = bench::dgefa(16);
  const std::string src = bench::fan_out(8, 64);
  {
    service::ServiceOptions sopt;
    sopt.cache_dir = dir;
    TestService ts("shared_store", sopt);
    auto client = ts.client();
    std::string reason;
    ASSERT_TRUE(client.compile(first, wire_options(2), &reason)) << reason;
    auto at4 = client.compile(src, wire_options(4), &reason);
    ASSERT_TRUE(at4) << reason;
    EXPECT_EQ(at4->summaries_computed, 9u);
    auto at2 = client.compile(src, wire_options(2), &reason);
    ASSERT_TRUE(at2) << reason;
    EXPECT_EQ(at2->summaries_computed, 0u);
    EXPECT_EQ(at2->spmd, local_spmd(src, 2));
    ts.svc->drain();
    ts.svc->stop();
  }
  std::map<uint64_t, int> summaries;
  for (const test::PackRecord& r : test::pack_records(dir))
    if (r.kind == "summary") ++summaries[r.digest];
  EXPECT_GE(summaries.size(), 9u);
  for (const auto& [digest, records] : summaries)
    EXPECT_EQ(records, 1) << digest;
}

// ---------------------------------------------------------------------------
// Failure semantics
// ---------------------------------------------------------------------------

TEST(CompileService, CompileFailureIsAuthoritativeNotDegraded) {
  TestService ts("compile_fail");
  std::string reason;
  auto r = ts.client().compile("program p1\n  this is not fortran d\n",
                               wire_options(), &reason);
  ASSERT_TRUE(r) << reason;  // a reply, not a fallback
  EXPECT_EQ(static_cast<remote::CompileStatus>(r->status),
            remote::CompileStatus::CompileFail);
  EXPECT_FALSE(r->diagnostics.empty());
}

TEST(CompileService, UnreachableDaemonYieldsReasonNotReply) {
  net::Listener probe;
  ASSERT_TRUE(probe.listen_on("127.0.0.1", 0));
  const int dead_port = probe.port();
  probe.close();
  service::ClientOptions copt;
  copt.port = dead_port;
  copt.timeout_ms = 500;
  service::CompileClient client(copt);
  std::string reason;
  auto r = client.compile("program p\nend\n", wire_options(), &reason);
  EXPECT_FALSE(r);
  EXPECT_FALSE(reason.empty());
}

TEST(CompileService, HandshakeSkewIsRejectedBeforeAnyCompile) {
  TestService ts("skew");
  service::ClientOptions copt;
  copt.port = ts.svc->port();
  copt.timeout_ms = 2000;
  copt.format_hash_override = 0xdeadbeefull;
  service::CompileClient client(copt);
  std::string reason;
  auto r = client.compile(bench::fan_out(2, 64), wire_options(), &reason);
  EXPECT_FALSE(r);
  EXPECT_NE(reason.find("mismatch"), std::string::npos) << reason;
  EXPECT_GE(json_uint(ts.svc->metrics_json(), "handshake_rejects"), 1u);
}

TEST(CompileService, FullQueueRejectsInsteadOfQueueingUnboundedly) {
  service::ServiceOptions opt;
  opt.max_queue = 0;  // admission always refuses
  TestService ts("reject", opt);
  std::string reason;
  auto r = ts.client().compile(bench::fan_out(2, 64), wire_options(), &reason);
  EXPECT_FALSE(r);
  EXPECT_NE(reason.find("capacity"), std::string::npos) << reason;
  EXPECT_GE(json_uint(ts.svc->metrics_json(), "rejected"), 1u);
}

TEST(CompileService, QueuedRequestPastItsDeadlineIsDroppedNotCompiled) {
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<int> compiles{0};
  service::ServiceOptions opt;
  opt.executors = 1;
  opt.before_compile = [&] {
    if (compiles.fetch_add(1) == 0) released.wait();
  };
  TestService ts("deadline", opt);

  // Occupy the lone executor with a request that blocks in
  // before_compile until we release it.
  std::thread hog([&] {
    auto client = ts.client();
    std::string reason;
    auto r = client.compile(bench::fan_out(2, 64), wire_options(), &reason);
    EXPECT_TRUE(r) << reason;
  });
  while (compiles.load() == 0) std::this_thread::yield();

  // This request's whole 50 ms budget passes in the queue.
  auto copts = wire_options();
  copts.deadline_ms = 50;
  std::string reason;
  std::optional<remote::CompileReplyWire> expired;
  std::thread waiter([&] {
    auto client = ts.client();
    expired = client.compile(bench::fan_out(2, 64), copts, &reason);
  });
  // The deadline counts from admission: once the waiter's COMPILE is
  // admitted, outwait its deadline in the queue, then free the executor.
  for (int spin = 0; spin < 2000; ++spin) {
    if (json_uint(ts.svc->metrics_json(), "requests") >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.set_value();
  hog.join();
  waiter.join();
  EXPECT_FALSE(expired);
  EXPECT_NE(reason.find("deadline"), std::string::npos) << reason;
  EXPECT_EQ(compiles.load(), 1) << "the expired request must not compile";
  EXPECT_GE(json_uint(ts.svc->metrics_json(), "deadline_expired"), 1u);
}

TEST(CompileService, DefaultDeadlineBoundsRequestsThatCarryNone) {
  // CompileClient always sends a deadline, but the wire allows none: the
  // daemon's default must then bound the queue wait instead.
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<int> compiles{0};
  service::ServiceOptions opt;
  opt.executors = 1;
  opt.default_deadline_ms = 50;
  opt.before_compile = [&] {
    if (compiles.fetch_add(1) == 0) released.wait();
  };
  TestService ts("default_deadline", opt);

  std::thread hog([&] {
    std::string reason;
    auto r = ts.client().compile(bench::fan_out(2, 64), wire_options(), &reason);
    EXPECT_TRUE(r) << reason;
  });
  while (compiles.load() == 0) std::this_thread::yield();

  // A raw client: handshake, then a COMPILE whose deadline_ms is 0.
  auto sock = net::connect_to("127.0.0.1", ts.svc->port(), 5000);
  net::FrameDecoder decoder;
  bool sent = false;
  if (sock) {
    remote::WireMessage hello;
    hello.type = remote::MsgType::Hello;
    hello.format_hash = remote::remote_wire_format_hash();
    auto hello_ok = write_message(*sock, hello)
                        ? read_message(*sock, decoder)
                        : std::nullopt;
    remote::WireMessage req;
    req.type = remote::MsgType::Compile;
    req.request_id = 9;
    req.text = bench::fan_out(2, 64);
    req.copts = wire_options();
    sent = hello_ok && hello_ok->type == remote::MsgType::HelloOk &&
           write_message(*sock, req);
  }
  // Once the request is admitted, outwait its default deadline in the
  // queue, then free the executor.
  for (int spin = 0; sent && spin < 400; ++spin) {
    if (json_uint(ts.svc->metrics_json(), "requests") >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.set_value();
  hog.join();

  ASSERT_TRUE(sent);
  auto reply = read_message(*sock, decoder, 30000);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->type, remote::MsgType::CompileReply);
  EXPECT_EQ(reply->request_id, 9u);
  EXPECT_EQ(static_cast<remote::CompileStatus>(reply->creply.status),
            remote::CompileStatus::DeadlineExpired);
  EXPECT_EQ(compiles.load(), 1) << "the expired request must not compile";
}

TEST(CompileService, CompileWithZeroProcessorsIsDroppedAndTheDaemonServesOn) {
  // A COMPILE with n_procs = 0 once reached the code generator and killed
  // the daemon on SIGFPE.
  TestService ts("zero_procs");
  const std::string src = bench::fan_out(2, 64);
  auto sock = net::connect_to("127.0.0.1", ts.svc->port(), 5000);
  ASSERT_TRUE(sock);
  net::FrameDecoder decoder;
  remote::WireMessage hello;
  hello.type = remote::MsgType::Hello;
  hello.format_hash = remote::remote_wire_format_hash();
  ASSERT_TRUE(write_message(*sock, hello));
  auto hello_ok = read_message(*sock, decoder);
  ASSERT_TRUE(hello_ok && hello_ok->type == remote::MsgType::HelloOk);
  remote::WireMessage req;
  req.type = remote::MsgType::Compile;
  req.request_id = 5;
  req.text = src;
  req.copts = wire_options(0);
  ASSERT_TRUE(write_message(*sock, req));
  EXPECT_FALSE(read_message(*sock, decoder)) << "the daemon must drop it";
  EXPECT_EQ(json_uint(ts.svc->metrics_json(), "protocol_errors"), 1u);

  std::string reason;
  auto r = ts.client().compile(src, wire_options(), &reason);
  ASSERT_TRUE(r) << reason;
  EXPECT_EQ(r->spmd, local_spmd(src));
}

TEST(CompileService, DrainFinishesInFlightWorkThenRefusesNewRequests) {
  TestService ts("drain");
  auto client = ts.client();
  std::string reason;
  ASSERT_TRUE(client.compile(bench::fan_out(4, 64), wire_options(), &reason))
      << reason;

  // DRAIN answers once the daemon is idle...
  EXPECT_TRUE(client.drain(&reason)) << reason;
  // ...and later COMPILEs are refused (the client's cue to go local).
  auto refused =
      client.compile(bench::fan_out(4, 64), wire_options(), &reason);
  EXPECT_FALSE(refused);
  EXPECT_NE(reason.find("draining"), std::string::npos) << reason;
}

TEST(CompileService, ClientGoneBeforeReplyIsCountedNotFatal) {
  // The compile waits until the daemon has seen the client close its
  // socket: a reply written before the close reached the daemon would be
  // delivered, and nothing would be lost to count.
  std::promise<void> closed;
  std::shared_future<void> client_closed = closed.get_future().share();
  service::ServiceOptions opt;
  opt.before_compile = [client_closed] { client_closed.wait(); };
  TestService ts("gone", opt);
  const std::string src = bench::fan_out(8, 64);
  {
    // Handshake, send a COMPILE, vanish before the reply can be written.
    // The client reads HELLO_OK first: closing a socket with unread data
    // resets the connection, and the reset may discard the COMPILE
    // before the daemon ever reads it.
    auto sock = net::connect_to("127.0.0.1", ts.svc->port(), 2000);
    ASSERT_TRUE(sock);
    remote::WireMessage hello;
    hello.type = remote::MsgType::Hello;
    hello.format_hash = remote::remote_wire_format_hash();
    std::vector<uint8_t> framed;
    ASSERT_TRUE(net::encode_frame(framed, encode_message(hello)));
    ASSERT_EQ(sock->send_all(framed.data(), framed.size(), 2000),
              net::IoStatus::Ok);
    net::FrameDecoder decoder;
    std::optional<std::vector<uint8_t>> reply;
    while (!(reply = decoder.next())) {
      uint8_t buf[256];
      size_t got = 0;
      ASSERT_EQ(sock->recv_some(buf, sizeof(buf), got, 2000),
                net::IoStatus::Ok);
      decoder.feed(buf, got);
    }
    auto hello_ok = remote::decode_message(*reply);
    ASSERT_TRUE(hello_ok);
    ASSERT_EQ(hello_ok->type, remote::MsgType::HelloOk);
    remote::WireMessage req;
    req.type = remote::MsgType::Compile;
    req.request_id = 7;
    req.text = src;
    req.copts = wire_options();
    framed.clear();
    ASSERT_TRUE(net::encode_frame(framed, encode_message(req)));
    ASSERT_EQ(sock->send_all(framed.data(), framed.size(), 2000),
              net::IoStatus::Ok);
  }  // socket closes here, before the compile runs
  for (int spin = 0; spin < 2000; ++spin) {
    if (json_uint(ts.svc->metrics_json(), "connections_closed") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  closed.set_value();

  // The daemon must survive, count the loss, and keep serving.
  for (int spin = 0; spin < 200; ++spin) {
    const std::string json = ts.svc->metrics_json();
    if (json_uint(json, "disconnects_mid_reply") +
            json_uint(json, "replies_dropped") >=
        1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  const std::string json = ts.svc->metrics_json();
  EXPECT_GE(json_uint(json, "disconnects_mid_reply") +
                json_uint(json, "replies_dropped"),
            1u) << json;
  std::string reason;
  auto r = ts.client().compile(src, wire_options(), &reason);
  ASSERT_TRUE(r) << reason;
  EXPECT_EQ(r->spmd, local_spmd(src));
}

TEST(CompileService, MetricsReportPhaseTotalsAndPeaks) {
  TestService ts("metrics");
  auto client = ts.client();
  std::string reason;
  ASSERT_TRUE(client.compile(bench::fan_out(4, 64), wire_options(), &reason))
      << reason;
  auto copts = wire_options();
  copts.want_timings = 1;
  auto timed = client.compile(bench::fan_out(4, 64), copts, &reason);
  ASSERT_TRUE(timed) << reason;
  for (const char* key : {"queue_ms", "parse_ms", "compile_ms"})
    EXPECT_GE(json_double(timed->timings_json, key), 0.0)
        << key << " in " << timed->timings_json;

  auto metrics = client.fetch_metrics(&reason);
  ASSERT_TRUE(metrics) << reason;
  EXPECT_EQ(json_uint(*metrics, "requests"), 2u);
  EXPECT_EQ(json_uint(*metrics, "ok"), 2u);
  EXPECT_GE(json_uint(*metrics, "in_flight_peak"), 1u);
  EXPECT_GE(json_double(*metrics, "parse_ms_total"), 0.0) << *metrics;
  EXPECT_NE(metrics->find("\"sessions\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// CompileClient against a scripted daemon: every failure is a reason
// ---------------------------------------------------------------------------

/// A stand-in for fortdd on an ephemeral port. Its thread accepts
/// `connections` connections one after another and runs `script` on
/// each; join() (or the destructor) waits for the last one to finish.
class ScriptedDaemon {
 public:
  using Script = std::function<void(net::Socket&, net::FrameDecoder&)>;

  explicit ScriptedDaemon(Script script, int connections = 1) {
    EXPECT_TRUE(listener_.listen_on("127.0.0.1", 0));
    thread_ = std::thread([this, script = std::move(script), connections] {
      for (int c = 0; c < connections; ++c) {
        auto sock = accept_within(std::chrono::seconds(10));
        if (!sock) return;
        net::FrameDecoder decoder;
        script(*sock, decoder);
      }
    });
  }
  ~ScriptedDaemon() { join(); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  service::CompileClient client(int timeout_ms = 5000) const {
    service::ClientOptions copt;
    copt.port = listener_.port();
    copt.timeout_ms = timeout_ms;
    return service::CompileClient(copt);
  }

 private:
  std::optional<net::Socket> accept_within(std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (auto sock = listener_.accept_conn()) return sock;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::nullopt;
  }

  net::Listener listener_;
  std::thread thread_;
};

/// Read the client's HELLO and accept it.
bool accept_hello(net::Socket& sock, net::FrameDecoder& decoder) {
  auto hello = read_message(sock, decoder);
  if (!hello || hello->type != remote::MsgType::Hello) return false;
  remote::WireMessage ok;
  ok.type = remote::MsgType::HelloOk;
  return write_message(sock, ok);
}

/// Block until the client hangs up (or 10 s pass), so the daemon side
/// never closes first with bytes in flight.
void await_hangup(net::Socket& sock) {
  uint8_t buf[256];
  size_t got = 0;
  while (sock.recv_some(buf, sizeof(buf), got, 10000) == net::IoStatus::Ok) {
  }
}

/// Handshake and take one request, then answer it with `reply_bytes`
/// sent raw (no framing added) and wait for the hang-up.
ScriptedDaemon::Script answer_raw(std::vector<uint8_t> reply_bytes) {
  return [reply_bytes](net::Socket& sock, net::FrameDecoder& decoder) {
    if (!accept_hello(sock, decoder) || !read_frame(sock, decoder)) return;
    sock.send_all(reply_bytes.data(), reply_bytes.size(), 10000);
    await_hangup(sock);
  };
}

std::vector<uint8_t> framed(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  net::encode_frame(out, payload);
  return out;
}

TEST(CompileClient, DaemonClosingBeforeTheReplyYieldsReason) {
  // The daemon takes the COMPILE and dies before answering.
  ScriptedDaemon daemon([](net::Socket& sock, net::FrameDecoder& decoder) {
    if (accept_hello(sock, decoder)) (void)read_frame(sock, decoder);
  });
  std::string reason;
  EXPECT_FALSE(daemon.client().compile(bench::fan_out(2, 64), wire_options(),
                                       &reason));
  EXPECT_NE(reason.find("closed"), std::string::npos) << reason;
}

TEST(CompileClient, StalledReplyTimesOutWithinItsBudget) {
  ScriptedDaemon daemon([](net::Socket& sock, net::FrameDecoder& decoder) {
    if (!accept_hello(sock, decoder) || !read_frame(sock, decoder)) return;
    await_hangup(sock);  // never answer
  });
  const auto t0 = std::chrono::steady_clock::now();
  std::string reason;
  EXPECT_FALSE(daemon.client(/*timeout_ms=*/500)
                   .compile(bench::fan_out(2, 64), wire_options(), &reason));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(reason.find("timed out"), std::string::npos) << reason;
  EXPECT_LT(waited, std::chrono::seconds(8))
      << "the client must give up at its budget, not hang on the daemon";
}

TEST(CompileClient, MalformedReplyYieldsReason) {
  ScriptedDaemon daemon(answer_raw(framed({200, 1, 2, 3})));
  std::string reason;
  EXPECT_FALSE(daemon.client().compile(bench::fan_out(2, 64), wire_options(),
                                       &reason));
  EXPECT_NE(reason.find("malformed"), std::string::npos) << reason;
}

TEST(CompileClient, CorruptReplyStreamYieldsReason) {
  // A frame header declaring 1 GiB, far beyond the frame ceiling.
  std::vector<uint8_t> header;
  uint64_t v = 1ull << 30;
  while (v >= 0x80) {
    header.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  header.push_back(static_cast<uint8_t>(v));
  ScriptedDaemon daemon(answer_raw(header));
  std::string reason;
  EXPECT_FALSE(daemon.client().compile(bench::fan_out(2, 64), wire_options(),
                                       &reason));
  EXPECT_NE(reason.find("corrupt"), std::string::npos) << reason;
}

TEST(CompileClient, UnexpectedHandshakeReplyYieldsReason) {
  ScriptedDaemon daemon([](net::Socket& sock, net::FrameDecoder& decoder) {
    if (!read_frame(sock, decoder)) return;
    remote::WireMessage err;
    err.type = remote::MsgType::Error;
    err.text = "not a compile daemon";
    write_message(sock, err);
    await_hangup(sock);
  });
  std::string reason;
  EXPECT_FALSE(daemon.client().compile(bench::fan_out(2, 64), wire_options(),
                                       &reason));
  EXPECT_NE(reason.find("handshake"), std::string::npos) << reason;
}

TEST(CompileClient, WrongReplyTypeIsNotAccepted) {
  // Each request kind gets a well-formed reply of another kind: COMPILE
  // a METRICS_OK, METRICS a DRAIN_OK, DRAIN a COMPILE_REPLY.
  ScriptedDaemon daemon(
      [](net::Socket& sock, net::FrameDecoder& decoder) {
        if (!accept_hello(sock, decoder)) return;
        auto req = read_message(sock, decoder);
        if (!req) return;
        remote::WireMessage reply;
        reply.request_id = req->request_id;
        reply.type = req->type == remote::MsgType::Compile
                         ? remote::MsgType::MetricsOk
                     : req->type == remote::MsgType::Metrics
                         ? remote::MsgType::DrainOk
                         : remote::MsgType::CompileReply;
        write_message(sock, reply);
        await_hangup(sock);
      },
      /*connections=*/3);
  auto client = daemon.client();
  std::string reason;
  EXPECT_FALSE(client.compile(bench::fan_out(2, 64), wire_options(), &reason));
  EXPECT_NE(reason.find("unexpected reply type"), std::string::npos) << reason;
  reason.clear();
  EXPECT_FALSE(client.fetch_metrics(&reason));
  EXPECT_NE(reason.find("unexpected reply type"), std::string::npos) << reason;
  reason.clear();
  EXPECT_FALSE(client.drain(&reason));
  EXPECT_NE(reason.find("unexpected reply type"), std::string::npos) << reason;
}

TEST(CompileClient, UnknownReplyStatusYieldsReason) {
  remote::WireMessage reply;
  reply.type = remote::MsgType::CompileReply;
  reply.request_id = 1;
  reply.creply.status = 200;
  reply.creply.spmd = "must not be printed";
  ScriptedDaemon daemon(answer_raw(framed(remote::encode_message(reply))));
  std::string reason;
  EXPECT_FALSE(daemon.client().compile(bench::fan_out(2, 64), wire_options(),
                                       &reason));
  EXPECT_NE(reason.find("unknown reply status"), std::string::npos) << reason;
}

TEST(CompileClient, ReplyArrivingInSmallPiecesIsReassembled) {
  // The handshake reply goes out a byte at a time and the compile reply
  // in 7-byte pieces; the client must reassemble both. The daemon also
  // records the request: the client fills in its own budget as the
  // deadline when the caller gave none.
  remote::WireMessage reply;
  reply.type = remote::MsgType::CompileReply;
  reply.request_id = 1;
  reply.creply.status = static_cast<uint8_t>(remote::CompileStatus::Ok);
  reply.creply.generated = 3;
  reply.creply.spmd = std::string(5000, 'x') + "\nend\n";
  reply.creply.diagnostics = "warning: none";
  const std::vector<uint8_t> reply_bytes =
      framed(remote::encode_message(reply));
  remote::WireMessage hello_ok;
  hello_ok.type = remote::MsgType::HelloOk;
  const std::vector<uint8_t> hello_bytes =
      framed(remote::encode_message(hello_ok));

  std::optional<remote::WireMessage> request;
  ScriptedDaemon daemon([&](net::Socket& sock, net::FrameDecoder& decoder) {
    auto hello = read_message(sock, decoder);
    if (!hello || hello->type != remote::MsgType::Hello) return;
    for (uint8_t b : hello_bytes)
      if (sock.send_all(&b, 1, 10000) != net::IoStatus::Ok) return;
    request = read_message(sock, decoder);
    if (!request) return;
    for (size_t at = 0; at < reply_bytes.size(); at += 7) {
      const size_t n = std::min<size_t>(7, reply_bytes.size() - at);
      if (sock.send_all(reply_bytes.data() + at, n, 10000) !=
          net::IoStatus::Ok)
        return;
    }
    await_hangup(sock);
  });
  const std::string src = bench::fan_out(2, 64);
  std::string reason;
  auto r = daemon.client(/*timeout_ms=*/20000)
               .compile(src, wire_options(), &reason);
  daemon.join();
  ASSERT_TRUE(r) << reason;
  EXPECT_EQ(r->spmd, reply.creply.spmd);
  EXPECT_EQ(r->diagnostics, reply.creply.diagnostics);
  EXPECT_EQ(r->generated, 3u);
  ASSERT_TRUE(request);
  EXPECT_EQ(request->type, remote::MsgType::Compile);
  EXPECT_EQ(request->text, src);
  EXPECT_EQ(request->copts.n_procs, 4u);
  EXPECT_EQ(request->copts.deadline_ms, 20000u);
}

// ---------------------------------------------------------------------------
// Concurrent-client soak: fair completion, byte-identical outputs
// ---------------------------------------------------------------------------

class ServiceSoak : public ::testing::TestWithParam<int> {};

TEST_P(ServiceSoak, ConcurrentClientsGetByteIdenticalOutputs) {
  const int jobs = GetParam();
  service::ServiceOptions opt;
  opt.jobs = jobs;
  opt.executors = 4;
  TestService ts("soak_j" + std::to_string(jobs), opt);

  // Three distinct programs; every client compiles all of them, twice.
  const std::vector<std::string> programs = {
      bench::fan_out(8, 64), bench::fan_out(4, 64),
      bench::fan_out(8, 64, /*edited_leaf=*/2)};
  std::vector<std::string> references;
  for (const auto& src : programs) references.push_back(local_spmd(src));

  constexpr int kClients = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ts.client(60000);
      auto copts = wire_options();
      copts.deadline_ms = 60000;  // fair FIFO: nobody may starve past this
      for (int round = 0; round < 2; ++round) {
        for (size_t p = 0; p < programs.size(); ++p) {
          const size_t idx = (static_cast<size_t>(c) + p) % programs.size();
          std::string reason;
          auto r = client.compile(programs[idx], copts, &reason);
          if (!r ||
              static_cast<remote::CompileStatus>(r->status) !=
                  remote::CompileStatus::Ok ||
              r->spmd != references[idx]) {
            ADD_FAILURE() << "client " << c << " round " << round
                          << " program " << idx << ": "
                          << (r ? "wrong output/status" : reason);
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const std::string json = ts.svc->metrics_json();
  EXPECT_EQ(json_uint(json, "requests"), kClients * 2u * 3u);
  EXPECT_EQ(json_uint(json, "ok"), kClients * 2u * 3u);
  EXPECT_EQ(json_uint(json, "deadline_expired"), 0u);
  EXPECT_EQ(json_uint(json, "rejected"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Jobs, ServiceSoak, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// fortdc -server end to end (the CLI as a process)
// ---------------------------------------------------------------------------

using test::FortdcRun;

/// Run fortdc with `args` on `source` in a fresh directory.
FortdcRun run_fortdc(const std::string& tag, const std::string& args,
                     const std::string& source) {
  return test::run_fortdc(fresh_cache_dir("fortdc_" + tag), "in", source,
                          args);
}

TEST(FortdcServer, MalformedPortExitsTwoWithoutCompiling) {
  // "9x" once read as port 9: fortdc connected there, warned and compiled
  // locally with exit 0.
  const FortdcRun run =
      run_fortdc("bad_port", "-server 127.0.0.1:9x", bench::fan_out(2, 64));
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_TRUE(run.out.empty()) << run.out;
  EXPECT_NE(run.err.find("HOST:PORT"), std::string::npos) << run.err;
}

TEST(FortdcFlags, MalformedValuesExitTwoNamingTheFlag) {
  // -p 0 and -p x once died on SIGFPE; the other values were accepted.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"-p 0", "-p"},         {"-p x", "-p"},
      {"-p -2", "-p"},        {"-P 0", "-P"},
      {"-j 0", "-j"},         {"-j 2x", "-j"},
      {"-O 7", "-O"},         {"-O -1", "-O"},
      {"-s bogus", "-s"},     {"-cache-max-bytes -5", "-cache-max-bytes"},
      {"-server-timeout-ms 0", "-server-timeout-ms"},
      {"-p 0 -server 127.0.0.1:1", "-p"},
  };
  for (const auto& [args, flag] : bad) {
    const FortdcRun run = run_fortdc("bad_flag", args, bench::fan_out(2, 64));
    EXPECT_EQ(run.exit_code, 2) << args << ": " << run.err;
    EXPECT_TRUE(run.out.empty()) << args << ": " << run.out;
    EXPECT_EQ(run.err.rfind("fortdc: " + flag + " expects", 0), 0u)
        << args << ": " << run.err;
    EXPECT_EQ(std::count(run.err.begin(), run.err.end(), '\n'), 1)
        << args << ": " << run.err;
  }
}

TEST(FortdcServer, UnreachableDaemonFallsBackToLocalByteIdentically) {
  net::Listener probe;
  ASSERT_TRUE(probe.listen_on("127.0.0.1", 0));
  const int dead_port = probe.port();
  probe.close();
  const std::string src = bench::fan_out(4, 64);
  const FortdcRun local = run_fortdc("fallback_local", "-p 2", src);
  const FortdcRun fallback = run_fortdc(
      "fallback_served",
      "-p 2 -server-timeout-ms 5000 -server 127.0.0.1:" +
          std::to_string(dead_port),
      src);
  ASSERT_EQ(local.exit_code, 0) << local.err;
  EXPECT_EQ(fallback.exit_code, 0) << fallback.err;
  EXPECT_FALSE(local.out.empty());
  EXPECT_EQ(fallback.out, local.out);
  EXPECT_NE(fallback.err.find("compiling locally"), std::string::npos)
      << fallback.err;
}

TEST(FortdcServer, ServedListingMatchesLocalListing) {
  TestService ts("fortdc_served");
  const std::string src = bench::fan_out(4, 64);
  const FortdcRun local = run_fortdc("served_local", "-p 2", src);
  const FortdcRun served = run_fortdc(
      "served", "-p 2 -server 127.0.0.1:" + std::to_string(ts.svc->port()),
      src);
  ASSERT_EQ(local.exit_code, 0) << local.err;
  EXPECT_EQ(served.exit_code, 0) << served.err;
  EXPECT_FALSE(local.out.empty());
  EXPECT_EQ(served.out, local.out);
  EXPECT_EQ(served.err.find("warning"), std::string::npos) << served.err;
  EXPECT_EQ(json_uint(ts.svc->metrics_json(), "ok"), 1u);
}

TEST(FortdcServer, ServedAnalyzeReportMatchesLocalReport) {
  // With -analyze the findings, the "fortdc: analyze:" line and the clone
  // summary come from one writer on both paths.
  TestService ts("fortdc_served_analyze");
  std::ifstream fixture(std::string(FORTD_LINT_FIXTURE_DIR) +
                        "/alias_hazard.fd");
  std::ostringstream src;
  src << fixture.rdbuf();
  const FortdcRun local =
      run_fortdc("served_analyze_local", "-p 2 -analyze -lint-json", src.str());
  const FortdcRun served = run_fortdc(
      "served_analyze",
      "-p 2 -analyze -lint-json -server 127.0.0.1:" +
          std::to_string(ts.svc->port()),
      src.str());
  ASSERT_EQ(local.exit_code, 0) << local.err;
  EXPECT_EQ(served.exit_code, 0) << served.err;
  EXPECT_NE(local.err.find("fortdc: analyze: 1 warning(s)"), std::string::npos)
      << local.err;
  EXPECT_EQ(served.err, local.err);
  EXPECT_EQ(served.out, local.out);
  EXPECT_EQ(json_uint(ts.svc->metrics_json(), "ok"), 1u);
}

TEST(FortdcServer, DaemonCompileFailureExitsOneWithoutLocalFallback) {
  // A program the daemon rejects fails exactly as a local compile would:
  // exit 1 with the daemon's diagnostics, and no second, local attempt.
  TestService ts("fortdc_fail");
  const FortdcRun run = run_fortdc(
      "served_fail", "-server 127.0.0.1:" + std::to_string(ts.svc->port()),
      "program p1\n  this is not fortran d\n");
  EXPECT_EQ(run.exit_code, 1) << run.err;
  EXPECT_TRUE(run.out.empty()) << run.out;
  EXPECT_FALSE(run.err.empty());
  EXPECT_EQ(run.err.find("compiling locally"), std::string::npos) << run.err;
  EXPECT_EQ(json_uint(ts.svc->metrics_json(), "compile_fail"), 1u);
}

// ---------------------------------------------------------------------------
// The fortdc report lines perfbench/run.py parses, each pinned by the check
// that reads it: RunCheck.TRAFFIC and GENERATED (fortdc -run),
// ColdBuild.check (-analyze -Werror -cache-dir), EditServed.parse_generated
// (-server).
// ---------------------------------------------------------------------------

/// The a and b of -timings' "a/b generated"; {-1, -1} when absent.
std::pair<int, int> generated_of(const std::string& err) {
  std::smatch m;
  if (!std::regex_search(err, m, std::regex(R"((\d+)/(\d+) generated)")))
    return {-1, -1};
  return {std::stoi(m[1]), std::stoi(m[2])};
}

TEST(FortdcReport, RunPrintsHarnessOkWithTheSimulatorsTraffic) {
  const std::regex traffic(
      R"(harness: traffic vs simulator prediction: OK \((\d+) message\(s\), )"
      R"((\d+) byte\(s\), (\d+) remap\(s\), (\d+) remap byte\(s\)\))");
  for (const auto& [flag, strategy] :
       {std::pair{"inter", Strategy::Interprocedural},
        std::pair{"intra", Strategy::Intraprocedural},
        std::pair{"runtime", Strategy::RuntimeResolution}}) {
    SCOPED_TRACE(flag);
    CodegenOptions opt;
    opt.n_procs = 4;
    opt.strategy = strategy;
    const ExecResult predicted =
        simulate(Compiler(opt).compile_source(examples::kJacobi).spmd);
    ASSERT_GT(predicted.messages, 0);
    const FortdcRun run =
        run_fortdc(std::string("report_run_") + flag,
                   std::string("-p 4 -s ") + flag + " -timings -run",
                   examples::kJacobi);
    ASSERT_EQ(run.exit_code, 0) << run.err;
    EXPECT_NE(run.err.find("harness: numerics vs serial: OK"),
              std::string::npos)
        << run.err;
    std::smatch m;
    ASSERT_TRUE(std::regex_search(run.err, m, traffic)) << run.err;
    EXPECT_EQ(std::stoll(m[1]), predicted.messages);
    EXPECT_EQ(std::stoll(m[2]), predicted.bytes);
    EXPECT_EQ(std::stoll(m[3]), predicted.remaps_executed);
    EXPECT_EQ(std::stoll(m[4]), predicted.remap_bytes);
    EXPECT_EQ(generated_of(run.err), std::make_pair(1, 1)) << run.err;
  }
}

TEST(FortdcReport, AnalyzeWerrorOnACleanProgramPrintsItsSummaryLines) {
  CodegenOptions opt;
  opt.n_procs = 4;
  LintOptions lint;
  lint.analyze = lint.verify_spmd = true;
  const CompileResult expected =
      Compiler(opt, {}, lint).compile_source(examples::kStencil2d);
  const CompileStats& st = expected.spmd.stats;
  ASSERT_GT(st.clones_created, 0);
  ASSERT_GT(st.vectorized_messages, 0);
  const int procedures = expected.stats.procedures;

  const std::string args = "-p 4 -analyze -Werror -timings -cache-dir " +
                           fresh_cache_dir("report_analyze_cache");
  const FortdcRun cold =
      run_fortdc("report_analyze_cold", args, examples::kStencil2d);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  std::smatch m;
  ASSERT_TRUE(std::regex_search(
      cold.err, m,
      std::regex(R"(analyze: (\d+) warning\(s\).*?(\d+) unmatched)")))
      << cold.err;
  EXPECT_EQ(m[1], "0");
  EXPECT_EQ(m[2], "0");
  ASSERT_TRUE(std::regex_search(
      cold.err, m,
      std::regex(R"((\d+) clone\(s\),.* (\d+) vectorized message\(s\))")))
      << cold.err;
  EXPECT_EQ(std::stoi(m[1]), st.clones_created);
  EXPECT_EQ(std::stoi(m[2]), st.vectorized_messages);
  EXPECT_EQ(generated_of(cold.err), std::make_pair(procedures, procedures));
  EXPECT_TRUE(std::regex_search(
      cold.err, std::regex(R"((^|\n)fortdc: parse [0-9.]+ms, bind [^\n]* )"
                           R"(\d+/\d+ generated)")))
      << "the -timings phase line starts with the parse: " << cold.err;

  const FortdcRun warm =
      run_fortdc("report_analyze_warm", args, examples::kStencil2d);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_EQ(generated_of(warm.err), std::make_pair(0, procedures));
}

TEST(FortdcServer, TimingsAreOneFlatJsonLine) {
  TestService ts("report_served");
  const std::string src = bench::fan_out(4, 64);
  const FortdcRun run = run_fortdc(
      "report_served",
      "-p 4 -timings -server 127.0.0.1:" + std::to_string(ts.svc->port()),
      src);
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(run.err.find("warning"), std::string::npos) << run.err;
  std::vector<std::string> lines;
  const std::string prefix = "fortdc: server: ";
  for (const std::string& line : split_lines(run.err))
    if (line.rfind(prefix, 0) == 0) lines.push_back(line.substr(prefix.size()));
  ASSERT_EQ(lines.size(), 1u) << run.err;

  // A flat object of numbers, read key by key.
  const std::string number = R"(-?\d+(?:\.\d+)?)";
  const std::string member = "\"(\\w+)\":(" + number + ")";
  ASSERT_TRUE(std::regex_match(
      lines[0], std::regex("\\{" + member + "(?:," + member + ")*\\}")))
      << lines[0];
  std::map<std::string, double> json;
  const std::regex each(member);
  for (auto it = std::sregex_iterator(lines[0].begin(), lines[0].end(), each);
       it != std::sregex_iterator(); ++it)
    json[(*it)[1]] = std::stod((*it)[2]);
  std::vector<std::string> keys;
  for (const auto& [key, value] : json) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "bind_ms", "codegen_ms", "compile_ms", "generated",
                      "ipa_ms", "jobs", "overlap_ms", "parse_ms",
                      "queue_ms", "summaries_computed"}));
  EXPECT_EQ(json["generated"], 5.0);
  for (const char* key : {"queue_ms", "parse_ms", "compile_ms"})
    EXPECT_GE(json[key], 0.0) << key;
}

// ---------------------------------------------------------------------------
// ThreadPool: the concurrent-batch contract the shared pool rests on
// ---------------------------------------------------------------------------

TEST(ThreadPool, ConcurrentBatchesFromManyThreadsRunEveryIndexOnce) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t)
    threads.emplace_back([&] {
      for (int round = 0; round < 25; ++round)
        pool.parallel_for(64, [&](size_t) { sum.fetch_add(1); });
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum.load(), 6l * 25 * 64);
}

TEST(ThreadPool, CallerCompletesItsBatchWhileWorkersAreBusyElsewhere) {
  ThreadPool pool(1);
  std::atomic<bool> hold{true};
  std::atomic<int> hogs_running{0};
  std::thread hog([&] {
    pool.parallel_for(2, [&](size_t) {
      hogs_running.fetch_add(1);
      while (hold.load()) std::this_thread::yield();
    });
  });
  // Both hog indices spinning = the lone worker is pinned.
  while (hogs_running.load() < 2) std::this_thread::yield();

  std::atomic<long> sum{0};
  pool.parallel_for(32, [&](size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 32);  // completed with zero worker help

  hold.store(false);
  hog.join();
}

TEST(ThreadPool, ExceptionsStayWithinTheirOwnBatch) {
  ThreadPool pool(2);
  std::atomic<long> clean_sum{0};
  std::thread clean([&] {
    for (int round = 0; round < 10; ++round)
      pool.parallel_for(32, [&](size_t) { clean_sum.fetch_add(1); });
  });
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(
        pool.parallel_for(8,
                          [&](size_t i) {
                            if (i == 3) throw std::runtime_error("batch");
                          }),
        std::runtime_error);
  }
  clean.join();
  EXPECT_EQ(clean_sum.load(), 10l * 32);
}

}  // namespace
}  // namespace fortd
