// fortd_perf — the benchmark's helper binary (see README.md).
//
//   fortd_perf emit PLAN OUTDIR
//       Write one Fortran D source per PLAN line, "NAME FAMILY ARGS...",
//       from the generators in bench/programs.hpp and
//       tests/example_programs.hpp, to OUTDIR/NAME.fd.
//
//   fortd_perf reference PLAN SRCDIR
//       For every PLAN line: run the library's serial reference on
//       SRCDIR/NAME.fd and compare each final main-program array with a
//       plain C++ computation of the same program (|err| <= 1e-9); then
//       compile it under each strategy at P=4 and print the simulator's
//       predicted traffic and run time. One JSON object per line on
//       stdout; exit 1 on any mismatch.
//
//   fortd_perf trace SPANS_OUT [-analyze] [-run] [-resident] [-listings] [-j N]
//       Traced replay. Reads "op ID PATH STRATEGY DIR_A DIR_B SERVER"
//       lines from stdin ("-" = none) and runs each input through the
//       library's public entry points one layer at a time (with the
//       content store on DIR_A), then through Compiler::compile_source
//       (store on DIR_B), the runtime backends (-run) and a COMPILE round
//       trip to SERVER. Answers each op with one JSON line of facts for
//       the benchmark's checks (-listings also writes the listing to
//       PATH.spmd). Spans and counts stay in memory and are
//       written to SPANS_OUT as JSON at end of input.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint/lint.hpp"
#include "analysis/lint/spmd_verifier.hpp"
#include "bench/programs.hpp"
#include "codegen/codegen.hpp"
#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "frontend/parser.hpp"
#include "ipa/overlap_prop.hpp"
#include "remote/protocol.hpp"
#include "runtime/backend.hpp"
#include "runtime/harness.hpp"
#include "service/client.hpp"
#include "support/thread_pool.hpp"
#include "tests/example_programs.hpp"

namespace {

using namespace fortd;

std::vector<std::string> split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int64_t num(const std::vector<std::string>& w, size_t i) {
  if (i >= w.size()) throw std::runtime_error("missing argument in plan line");
  return std::stoll(w[i]);
}

const char* example_source(const std::string& name) {
  for (const auto& e : examples::kExamples)
    if (name == e.name) return e.source;
  throw std::runtime_error("unknown example " + name);
}

/// The generator call a plan line names: "NAME FAMILY ARGS...".
std::string generate(const std::vector<std::string>& w) {
  const std::string& f = w.at(1);
  if (f == "example") return example_source(w.at(2));
  if (f == "fan_out") return bench::fan_out(int(num(w, 2)), num(w, 3));
  if (f == "chain_fanout")
    return bench::chain_fanout(int(num(w, 2)), int(num(w, 3)), num(w, 4));
  if (f == "cloning_fanout")
    return bench::cloning_fanout(int(num(w, 2)), int(num(w, 3)), num(w, 4));
  if (f == "call_chain") return bench::call_chain(int(num(w, 2)), num(w, 3));
  if (f == "dgefa") return bench::dgefa(num(w, 2));
  if (f == "stencil1d") return bench::stencil1d(num(w, 2), int(num(w, 3)));
  if (f == "fig4") return bench::fig4(num(w, 2), num(w, 3));
  if (f == "fig15") return bench::fig15(num(w, 2), num(w, 3));
  throw std::runtime_error("unknown family " + f);
}

// ---------------------------------------------------------------------------
// Plain C++ computations of the run_check programs. Arrays are 1-based and
// flattened with the last subscript fastest, the order
// ExecResult::gather() returns.

struct Arr {
  int64_t n1 = 0, n2 = 1;
  std::vector<double> v;
  Arr() = default;
  Arr(int64_t a, int64_t b = 1) : n1(a), n2(b), v(size_t(a * b), 0.0) {}
  double& operator()(int64_t i, int64_t j = 1) {
    return v[size_t((i - 1) * n2 + (j - 1))];
  }
};
using Arrays = std::map<std::string, Arr>;

int64_t modp(int64_t a, int64_t m) {
  int64_t r = a % m;
  return r < 0 ? r + m : r;
}

Arrays ref_jacobi() {
  Arr u(256), unew(256);
  for (int i = 1; i <= 256; ++i) u(i) = double(modp(i * 13, 97)) * 1.0;
  for (int t = 1; t <= 20; ++t) {
    for (int i = 2; i <= 255; ++i) unew(i) = 0.5 * (u(i - 1) + u(i + 1));
    for (int i = 2; i <= 255; ++i) u(i) = unew(i);
  }
  return {{"u", u}, {"unew", unew}};
}

Arrays ref_adi() {
  const int n = 48;
  Arr u(n, n);
  for (int i = 1; i <= n; ++i)
    for (int j = 1; j <= n; ++j) u(i, j) = double(modp(i * 3 + j * 5, 11) + 1);
  for (int t = 1; t <= 4; ++t) {
    for (int i = 1; i <= n; ++i)
      for (int j = 2; j <= n; ++j) u(i, j) = u(i, j) + 0.5 * u(i, j - 1);
    for (int j = 1; j <= n; ++j)
      for (int i = 2; i <= n; ++i) u(i, j) = u(i, j) + 0.5 * u(i - 1, j);
  }
  return {{"u", u}};
}

/// fig4 and the stencil2d example: z(k,i) = g(z(k+5,i)) over x's first
/// `trips` columns, then over y's.
Arrays ref_fig4(int64_t n, int64_t trips, bool stencil2d) {
  Arr x(n, n), y(n, n);
  for (int64_t i = 1; i <= n; ++i)
    for (int64_t j = 1; j <= n; ++j) {
      x(i, j) = double(i) + 0.01 * double(j);
      y(i, j) = double(j) + 0.01 * double(i);
    }
  auto f1 = [&](Arr& z, int64_t i) {
    for (int64_t k = 1; k <= n - 5; ++k)
      z(k, i) = stencil2d ? 0.5 * z(k + 5, i) + 1.0 : 0.5 * z(k + 5, i);
  };
  for (int64_t i = 1; i <= trips; ++i) f1(x, i);
  for (int64_t j = 1; j <= trips; ++j) f1(y, j);
  return {{"x", x}, {"y", y}};
}

/// fig15 and the redistribution example: 2*steps increments, then
/// x(i) = 2i overwrites them all.
Arrays ref_fig15(int64_t n, int64_t steps) {
  Arr x(n);
  for (int64_t i = 1; i <= n; ++i) x(i) = double(i) * 1.0;
  for (int64_t k = 1; k <= 2 * steps; ++k)
    for (int64_t i = 1; i <= n; ++i) x(i) = x(i) + 1.0;
  for (int64_t i = 1; i <= n; ++i) x(i) = 2.0 * double(i);
  return {{"x", x}};
}

Arrays ref_dgefa(int64_t n) {
  Arr a(n, n), ipvt(n);
  for (int64_t j = 1; j <= n; ++j) {
    for (int64_t i = 1; i <= n; ++i) a(i, j) = double(modp(i * 7 + j * 3, 13) + 1);
    a(j, j) = a(j, j) + double(n * 13);
  }
  for (int64_t k = 1; k <= n - 1; ++k) {
    double tmax = 0.0;
    int64_t ip = k;
    for (int64_t i = k; i <= n; ++i)
      if (std::fabs(a(i, k)) > tmax) {
        tmax = std::fabs(a(i, k));
        ip = i;
      }
    ipvt(k) = double(ip);
    if (ip != k)
      for (int64_t j = 1; j <= n; ++j) std::swap(a(k, j), a(ip, j));
    for (int64_t i = k + 1; i <= n; ++i) a(i, k) = a(i, k) / a(k, k);
    for (int64_t j = k + 1; j <= n; ++j)
      for (int64_t i = k + 1; i <= n; ++i) a(i, j) = a(i, j) - a(i, k) * a(k, j);
  }
  return {{"a", a}, {"ipvt", ipvt}};
}

Arrays ref_stencil1d(int64_t n, int64_t shift) {
  Arr x(n);
  for (int64_t i = 1; i <= n; ++i) x(i) = double(i) * 0.5;
  for (int64_t i = 1; i <= n - shift; ++i) x(i) = 0.25 * x(i + shift) + 1.0;
  return {{"x", x}};
}

Arrays ref_fan_out(int64_t width, int64_t n) {
  Arr x(n);
  for (int64_t i = 1; i <= n; ++i) x(i) = double(i) * 1.0;
  for (int64_t d = 1; d <= width; ++d) {
    const int64_t shift = 1 + d % 3;
    for (int64_t i = 1; i <= n - 3; ++i) x(i) = 0.5 * x(i + shift);
  }
  return {{"x", x}};
}

Arrays reference_arrays(const std::vector<std::string>& w) {
  const std::string& f = w.at(1);
  if (f == "example") {
    const std::string& e = w.at(2);
    if (e == "jacobi") return ref_jacobi();
    if (e == "adi") return ref_adi();
    if (e == "stencil2d") return ref_fig4(100, 100, true);
    if (e == "redistribution") return ref_fig15(100, 10);
    if (e == "dgefa") return ref_dgefa(16);
  }
  if (f == "dgefa") return ref_dgefa(num(w, 2));
  if (f == "stencil1d") return ref_stencil1d(num(w, 2), num(w, 3));
  if (f == "fig4") return ref_fig4(num(w, 2), num(w, 3), false);
  if (f == "fig15") return ref_fig15(num(w, 2), num(w, 3));
  if (f == "fan_out") return ref_fan_out(num(w, 2), num(w, 3));
  throw std::runtime_error("no plain C++ reference for " + f);
}

Strategy parse_strategy(const std::string& s) {
  if (s == "inter") return Strategy::Interprocedural;
  if (s == "intra") return Strategy::Intraprocedural;
  if (s == "runtime") return Strategy::RuntimeResolution;
  throw std::runtime_error("unknown strategy " + s);
}

int cmd_emit(const std::string& plan, const std::string& outdir) {
  std::ifstream in(plan);
  if (!in) throw std::runtime_error("cannot read " + plan);
  for (std::string line; std::getline(in, line);) {
    const auto w = split(line);
    if (w.empty()) continue;
    std::ofstream out(outdir + "/" + w[0] + ".fd");
    out << generate(w);
    if (!out) throw std::runtime_error("cannot write " + w[0]);
  }
  return 0;
}

int cmd_reference(const std::string& plan, const std::string& srcdir) {
  std::ifstream in(plan);
  if (!in) throw std::runtime_error("cannot read " + plan);
  int bad = 0;
  for (std::string line; std::getline(in, line);) {
    const auto w = split(line);
    if (w.empty()) continue;
    const std::string source = read_file(srcdir + "/" + w[0] + ".fd");
    const SourceProgram original = parse_program(source);
    const ExecResult serial = run_serial_reference(original);
    const Arrays want = reference_arrays(w);
    double max_err = 0.0;
    std::string problem;
    const auto names = serial.main_arrays();
    if (names.size() != want.size()) problem = "array count differs";
    for (const std::string& name : names) {
      auto it = want.find(name);
      if (it == want.end()) {
        problem = "no reference for array " + name;
        break;
      }
      const std::vector<double> got = serial.gather(name);
      if (got.size() != it->second.v.size()) {
        problem = "size of " + name + " differs";
        break;
      }
      for (size_t i = 0; i < got.size(); ++i) {
        const double err = std::fabs(got[i] - it->second.v[i]);
        if (std::isnan(err) || err > max_err) max_err = err;  // NaN sticks
      }
    }
    if (problem.empty() && !(max_err <= 1e-9)) problem = "values differ";
    if (!problem.empty()) ++bad;
    std::printf("{\"name\":\"%s\",\"serial_ok\":%s,\"max_err\":\"%.3g\",\"problem\":\"%s\"",
                w[0].c_str(), problem.empty() ? "true" : "false", max_err,
                problem.c_str());
    // The simulator's prediction for each strategy: the count metrics of
    // run_check (messages, bytes, remap bytes) and its sim_ms.
    for (const char* s : {"inter", "intra", "runtime"}) {
      CodegenOptions options;
      options.n_procs = 4;
      options.strategy = parse_strategy(s);
      Compiler compiler(options);
      const CompileResult r = compiler.compile_source(source);
      const ExecResult sim = make_backend(BackendKind::Simulator)->execute(r.spmd);
      std::printf(",\"%s\":{\"messages\":%lld,\"bytes\":%lld,\"remaps\":%lld,"
                  "\"remap_bytes\":%lld,\"sim_us\":%.17g}",
                  s, static_cast<long long>(sim.messages),
                  static_cast<long long>(sim.bytes),
                  static_cast<long long>(sim.remaps_executed),
                  static_cast<long long>(sim.remap_bytes), sim.sim_time_us);
    }
    std::printf("}\n");
  }
  return bad ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Traced replay.

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start_us, end_us;
  int parent;  // index into spans, -1 for an op's root span
  int op;
};

struct Count {
  std::string name;
  double value;
  int op;
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  int begin(const std::string& name, int parent, int op) {
    spans_.push_back({name, now_us(), 0.0, parent, op});
    return int(spans_.size()) - 1;
  }
  void end(int span) { spans_[size_t(span)].end_us = now_us(); }
  void count(const std::string& name, double value, int op) {
    counts_.push_back({name, value, op});
  }

  /// Time `fn` as a span `name` under `parent`.
  template <typename Fn>
  auto timed(const std::string& name, int parent, int op, Fn&& fn) {
    const int s = begin(name, parent, op);
    struct Ender {
      Tracer* t;
      int s;
      ~Ender() { t->end(s); }
    } ender{this, s};
    return fn();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                    "\"parent\":%d,\"op\":%d}",
                    i ? "," : "", s.name.c_str(), s.start_us, s.end_us,
                    s.parent, s.op);
      out << buf;
    }
    out << "],\"counts\":[";
    for (size_t i = 0; i < counts_.size(); ++i) {
      const Count& c = counts_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s{\"name\":\"%s\",\"value\":%.17g,\"op\":%d}",
                    i ? "," : "", c.name.c_str(), c.value, c.op);
      out << buf;
    }
    out << "]}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<Count> counts_;
};

double json_number(const std::string& json, const std::string& key) {
  const std::string k = "\"" + key + "\":";
  const size_t at = json.find(k);
  return at == std::string::npos ? 0.0 : std::atof(json.c_str() + at + k.size());
}

struct TraceOptions {
  bool analyze = false;   // lint + SPMD verifier (fortdc -analyze)
  bool run = false;       // runtime backends + harness (fortdc -run)
  bool resident = false;  // caches persist across ops (the daemon's session)
  bool listings = false;  // write each op's listing to PATH.spmd
  int jobs = 1;
};

/// The caches one fortdc process (or one daemon session) owns.
struct Caches {
  std::unique_ptr<ContentStore> store;
  CompilationCache cache;
  IpaSummaryCache summaries;
};

class Replayer {
 public:
  explicit Replayer(TraceOptions o)
      : opt_(o), pool_(std::max(1, o.jobs) - 1) {}

  void op(int id, const std::string& path, const std::string& strategy,
          const std::string& dir_a, const std::string& dir_b,
          const std::string& server) {
    const std::string source = read_file(path);
    CodegenOptions options;
    options.n_procs = 4;
    options.jobs = opt_.jobs;
    options.strategy = parse_strategy(strategy);
    LintOptions lint;
    lint.analyze = lint.verify_spmd = opt_.analyze;
    const int root = t_.begin("op", -1, id);
    std::ostringstream facts;
    facts << "{\"op\":" << id;

    // The layer replay and compile_source run in alternating order, so
    // neither is always the one that finds the input's pages warm.
    if (id % 2) compile_whole(source, options, lint, dir_b, root, id);

    // -- the layers, one public entry point at a time -------------------
    if (!opt_.resident || !caches_) {
      caches_ = std::make_unique<Caches>();
      if (dir_a != "-") {
        CacheOptions co;
        co.dir = dir_a;
        caches_->store = t_.timed("driver.store_open", root, id, [&] {
          return std::make_unique<ContentStore>(co);
        });
        caches_->cache.attach_store(caches_->store.get());
        caches_->summaries.attach_store(caches_->store.get());
      }
    }
    Caches& c = *caches_;
    const ContentStore::Counters disk0 =
        c.store ? c.store->counters() : ContentStore::Counters{};
    const uint64_t hits0 = c.cache.hits();
    DiagnosticEngine diags;
    SourceProgram ast = t_.timed("frontend.parse", root, id, [&] {
      Parser parser(source, diags);
      return parser.parse_unit();
    });
    BoundProgram program = t_.timed("ir.bind", root, id,
                                    [&] { return bind_program(std::move(ast)); });
    IpaContext ipa = t_.timed("ipa", root, id, [&] {
      return run_ipa(program, IpaOptions{}, &pool_, &c.summaries);
    });
    t_.count("ipa.summaries_computed", ipa.stats.summaries_computed, id);
    t_.count("ipa.summaries_cached", ipa.stats.summaries_cached, id);
    t_.count("ipa.rounds", ipa.stats.rounds, id);
    OverlapEstimates overlaps = t_.timed("ipa.overlap", root, id, [&] {
      return compute_overlap_estimates(program, ipa.acg, ipa.summaries);
    });
    int warnings = 0;
    if (opt_.analyze) {
      LintReport report = t_.timed("analysis.lint", root, id, [&] {
        LintDriver linter(lint);
        return linter.run(LintContext{program, ipa, overlaps, options}, &pool_);
      });
      warnings = report.warnings;
    }
    std::vector<std::string> generated;
    SpmdProgram spmd = t_.timed("codegen", root, id, [&] {
      CodeGenerator generator(program, ipa, options, &c.cache, &overlaps, &pool_);
      SpmdProgram out = generator.generate();
      generated = generator.generated_procedures();
      return out;
    });
    t_.count("codegen.generated", double(generated.size()), id);
    t_.count("codegen.cache_hits", double(c.cache.hits() - hits0), id);
    if (opt_.analyze) {
      SpmdVerifyReport v = t_.timed("analysis.verify", root, id,
                                    [&] { return verify_spmd(spmd, &pool_); });
      facts << ",\"unmatched\":" << v.unmatched
            << ",\"verify_diags\":" << v.diags.size();
    }
    const std::string listing =
        t_.timed("codegen.print", root, id, [&] { return print_spmd(spmd); });
    t_.count("codegen.print_bytes", double(listing.size()), id);
    if (opt_.listings) std::ofstream(path + ".spmd", std::ios::binary) << listing;
    if (c.store) {
      t_.timed("driver.store_flush", root, id, [&] {
        c.store->flush();
        return 0;
      });
      const ContentStore::Counters d = c.store->counters();
      t_.count("driver.disk_hits", double(d.hits - disk0.hits), id);
      t_.count("driver.disk_misses", double(d.misses - disk0.misses), id);
    }
    const CompileStats& st = spmd.stats;
    facts << ",\"warnings\":" << warnings
          << ",\"vectorized\":" << st.vectorized_messages
          << ",\"clones\":" << st.clones_created
          << ",\"generated\":" << generated.size();

    if (id % 2 == 0) compile_whole(source, options, lint, dir_b, root, id);

    // -- execution: the harness and its three executions, apart ---------
    if (opt_.run) {
      const SourceProgram original = parse_program(source);
      t_.timed("runtime.serial", root, id,
               [&] { return run_serial_reference(original); });
      const ExecResult threads = t_.timed("runtime.threads", root, id, [&] {
        return make_backend(BackendKind::Threaded)->execute(spmd);
      });
      t_.count("runtime.messages", double(threads.messages), id);
      t_.timed("machine.exec", root, id, [&] {
        return make_backend(BackendKind::Simulator)->execute(spmd);
      });
      const HarnessReport hr = t_.timed("runtime.harness", root, id, [&] {
        return run_and_check(original, spmd, HarnessOptions{});
      });
      // The harness's own three executions, as each timed itself.
      t_.count("runtime.harness_exec_ms",
               hr.serial.wall_ms + hr.run.wall_ms + hr.predicted.wall_ms, id);
      facts << ",\"harness_ok\":" << (hr.ok() ? "true" : "false")
            << ",\"messages\":" << hr.run.messages
            << ",\"msg_bytes\":" << hr.run.bytes
            << ",\"remap_bytes\":" << hr.run.remap_bytes;
    }

    // -- a COMPILE round trip to the resident daemon ---------------------
    if (server != "-") {
      auto endpoint = service::parse_server_endpoint(server);
      if (!endpoint) throw std::runtime_error("bad server " + server);
      remote::CompileOptionsWire copts;
      copts.n_procs = 4;
      copts.strategy = static_cast<uint8_t>(options.strategy);
      copts.want_timings = 1;
      std::string reason;
      service::CompileClient client(*endpoint);
      auto reply = t_.timed("service.roundtrip", root, id, [&] {
        return client.compile(source, copts, &reason);
      });
      facts << ",\"served\":" << (reply ? "true" : "false");
      if (reply) {
        remote::WireMessage m;
        m.type = remote::MsgType::CompileReply;
        m.creply = *reply;
        t_.count("service.reply_bytes", double(remote::encode_message(m).size()), id);
        for (const char* k : {"queue_ms", "parse_ms", "compile_ms"})
          t_.count(std::string("service.") + k, json_number(reply->timings_json, k), id);
        facts << ",\"served_generated\":" << reply->generated;
      }
    }
    t_.end(root);
    facts << "}";
    std::printf("%s\n", facts.str().c_str());
    std::fflush(stdout);
  }

  void write(const std::string& path) const { t_.write(path); }

 private:
  /// The same input through the driver's one call.
  void compile_whole(const std::string& source, const CodegenOptions& options,
                     const LintOptions& lint, const std::string& dir_b, int root,
                     int id) {
    if (!opt_.resident || !compiler_) {
      CacheOptions co;
      if (dir_b != "-") co.dir = dir_b;
      compiler_ = std::make_unique<Compiler>(options, IpaOptions{}, lint, co);
    }
    t_.timed("driver.compile", root, id,
             [&] { return compiler_->compile_source(source); });
  }

  TraceOptions opt_;
  ThreadPool pool_;
  Tracer t_;
  std::unique_ptr<Caches> caches_;
  std::unique_ptr<Compiler> compiler_;
};

int cmd_trace(int argc, char** argv) {
  if (argc < 3) throw std::runtime_error("trace needs SPANS_OUT");
  const std::string spans_out = argv[2];
  TraceOptions o;
  for (int i = 3; i < argc; ++i) {
    if (!std::strcmp(argv[i], "-analyze")) o.analyze = true;
    else if (!std::strcmp(argv[i], "-run")) o.run = true;
    else if (!std::strcmp(argv[i], "-resident")) o.resident = true;
    else if (!std::strcmp(argv[i], "-listings")) o.listings = true;
    else if (!std::strcmp(argv[i], "-j") && i + 1 < argc) o.jobs = std::atoi(argv[++i]);
    else throw std::runtime_error(std::string("unknown trace option ") + argv[i]);
  }
  Replayer replayer(o);
  for (std::string line; std::getline(std::cin, line);) {
    const auto w = split(line);
    if (w.empty()) continue;
    if (w.size() != 7 || w[0] != "op") throw std::runtime_error("bad op line: " + line);
    const int id = std::stoi(w[1]);
    try {
      replayer.op(id, w[2], w[3], w[4], w[5], w[6]);
    } catch (const std::exception& e) {
      std::string msg = e.what();
      for (char& ch : msg)
        if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20) ch = ' ';
      std::printf("{\"op\":%d,\"error\":\"%s\"}\n", id, msg.c_str());
      std::fflush(stdout);
    }
  }
  replayer.write(spans_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "emit" && argc == 4) return cmd_emit(argv[2], argv[3]);
    if (cmd == "reference" && argc == 4) return cmd_reference(argv[2], argv[3]);
    if (cmd == "trace") return cmd_trace(argc, argv);
    std::fprintf(stderr,
                 "usage: fortd_perf emit PLAN OUTDIR | reference PLAN SRCDIR | "
                 "trace SPANS_OUT [-analyze] [-run] [-resident] [-listings] [-j N]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fortd_perf: %s\n", e.what());
    return 1;
  }
}
