// fortdd — the resident compile daemon (compile-as-a-service).
//
// Accepts COMPILE requests from fortdc clients (-server HOST:PORT),
// compiles them in-process, and streams the generated SPMD listing,
// diagnostics, and per-request timings back. What makes it worth
// running: the daemon keeps hot state between requests — one resident
// Compiler per option set (whose procedure cache, IPA summary cache,
// alias maps, and clone sets persist) and a shared on-disk
// ContentStore, so even a restarted daemon is warm. A repeat compile
// of an unchanged program parses the source again but recomputes no
// summaries and regenerates nothing; after a one-procedure edit only
// that procedure recompiles (§8's recompilation tests, served over a
// socket).
//
// Concurrency: requests from many clients queue FIFO behind a bounded
// admission queue and run on a fixed set of executors, all sharing one
// worker pool — fair scheduling, bounded memory, and no client can
// starve another.
//
//   fortdd [options]
//     -host H         bind address (default 127.0.0.1)
//     -port N         TCP port (default 4816; 0 picks an ephemeral port)
//     -j N            code-generation worker threads per compile (default 2)
//     -executors N    concurrent compiles (default 2)
//     -max-queue N    queued requests beyond which COMPILEs are rejected
//                     (default 64; rejected clients compile locally)
//     -sessions N     resident per-option-set compilers (default 8, LRU)
//     -cache-dir D    persistent artifact store shared by all sessions;
//                     makes a restarted daemon warm from disk
//     -cache-max-bytes N  LRU size bound of the store (default 256 MiB)
//     -deadline-ms N  default per-request deadline when the client sent
//                     none (0 = unlimited)
//     -metrics-json   print the service metrics JSON to stdout every 10 s
//
// Runs in the foreground until SIGINT/SIGTERM, then *drains*: new
// COMPILEs are refused (clients fall back to local compiles), in-flight
// requests finish and their replies flush, and a final metrics line
// prints. Exit codes: 0 clean shutdown, 2 usage (a malformed flag value
// included).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "service/client.hpp"
#include "service/compile_service.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace fortd;
  service::ServiceOptions options;
  options.port = 4816;
  options.jobs = 2;
  bool metrics_json = false;

  // The value of the numeric flag at argv[i] (advancing i past it), or
  // nullopt after one line naming the flag when it is not a whole number
  // in [lo, hi].
  auto int_value = [&](int& i, long long lo,
                       long long hi) -> std::optional<long long> {
    const char* flag = argv[i++];
    auto v = service::parse_int_in(argv[i], lo, hi);
    if (!v)
      std::fprintf(stderr,
                   "fortdd: %s expects a whole number in %lld..%lld, "
                   "got '%s'\n",
                   flag, lo, hi, argv[i]);
    return v;
  };
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  constexpr long long kMax = std::numeric_limits<long long>::max();

  for (int i = 1; i < argc; ++i) {
    std::optional<long long> v;
    if (!std::strcmp(argv[i], "-host") && i + 1 < argc) {
      options.host = argv[++i];
    } else if (!std::strcmp(argv[i], "-port") && i + 1 < argc) {
      if (!(v = int_value(i, 0, 65535))) return 2;
      options.port = static_cast<int>(*v);
    } else if (!std::strcmp(argv[i], "-j") && i + 1 < argc) {
      if (!(v = int_value(i, 1, kIntMax))) return 2;
      options.jobs = static_cast<int>(*v);
    } else if (!std::strcmp(argv[i], "-executors") && i + 1 < argc) {
      if (!(v = int_value(i, 1, kIntMax))) return 2;
      options.executors = static_cast<int>(*v);
    } else if (!std::strcmp(argv[i], "-max-queue") && i + 1 < argc) {
      if (!(v = int_value(i, 0, kMax))) return 2;
      options.max_queue = static_cast<size_t>(*v);
    } else if (!std::strcmp(argv[i], "-sessions") && i + 1 < argc) {
      if (!(v = int_value(i, 1, kMax))) return 2;
      options.max_sessions = static_cast<size_t>(*v);
    } else if (!std::strcmp(argv[i], "-cache-dir") && i + 1 < argc) {
      options.cache_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "-cache-max-bytes") && i + 1 < argc) {
      if (!(v = int_value(i, 0, kMax))) return 2;
      options.cache_max_bytes = static_cast<uint64_t>(*v);
    } else if (!std::strcmp(argv[i], "-deadline-ms") && i + 1 < argc) {
      if (!(v = int_value(i, 0, UINT32_MAX))) return 2;
      options.default_deadline_ms = static_cast<uint32_t>(*v);
    } else if (!std::strcmp(argv[i], "-metrics-json")) {
      metrics_json = true;
    } else {
      std::fprintf(stderr, "fortdd: unknown option '%s'\n", argv[i]);
      std::fprintf(stderr,
                   "usage: fortdd [-host H] [-port N] [-j N] [-executors N] "
                   "[-max-queue N] [-sessions N] [-cache-dir D] "
                   "[-cache-max-bytes N] [-deadline-ms N] [-metrics-json]\n");
      return 2;
    }
  }

  service::CompileService daemon(options);
  std::string err;
  if (!daemon.start(&err)) {
    std::fprintf(stderr, "fortdd: %s\n", err.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "fortdd: listening on %s:%d (%d executor(s), %d job(s), "
               "%zu session(s)%s%s)\n",
               options.host.c_str(), daemon.port(), options.executors,
               options.jobs, options.max_sessions,
               options.cache_dir.empty() ? "" : ", cache ",
               options.cache_dir.c_str());

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  int ticks = 0;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (metrics_json && ++ticks % 100 == 0)
      std::fprintf(stdout, "%s\n", daemon.metrics_json().c_str());
  }

  // Graceful drain: finish what's in flight, refuse the rest (those
  // clients compile locally), then tear down.
  daemon.drain();
  daemon.stop();
  std::fprintf(stdout, "%s\n", daemon.metrics_json().c_str());
  std::fprintf(stderr, "fortdd: drained and shut down cleanly\n");
  return 0;
}
