#include "runtime/harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>

namespace fortd {

namespace {

constexpr double kTolerance = 1e-9;  // absolute, for the serial diff

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

/// The storage pass's distribution of `array` in the main program — the
/// authoritative final ownership labels. The *run-time* registry is not:
/// array-kill remaps relabel to "(:)" without data motion (the values
/// materialize only under the next writer's static distribution), so
/// gathering by registry would read stale copies. Null for arrays the
/// storage pass did not place (gather falls back to the registry).
const DecompSpec* static_main_spec(const SpmdProgram& spmd,
                                   const std::string& array) {
  const Procedure* main = spmd.main();
  if (!main) return nullptr;
  auto it = spmd.storage.find(main->name);
  if (it == spmd.storage.end()) return nullptr;
  for (const ArrayStorageInfo& info : it->second)
    if (info.array == array && !info.spec.dists.empty()) return &info.spec;
  return nullptr;
}

}  // namespace

HarnessReport run_and_check(const SourceProgram& original,
                            const SpmdProgram& spmd,
                            const HarnessOptions& options) {
  HarnessReport report;
  report.serial = run_serial_reference(original);
  report.run = make_backend(options.backend)->execute(spmd);

  // -- numerics: every main-program array of the original, elementwise ----
  const auto ref_arrays = report.serial.main_arrays();
  const auto run_arrays = report.run.main_arrays();
  for (const std::string& name : ref_arrays) {
    if (!std::binary_search(run_arrays.begin(), run_arrays.end(), name)) {
      report.numerics_ok = false;
      report.failures.push_back(
          fmt("array '%s' exists serially but not in the parallel execution",
              name.c_str()));
      continue;
    }
    const DecompSpec* spec = static_main_spec(spmd, name);
    const std::vector<double> want = report.serial.gather(name);
    const std::vector<double> got =
        spec ? report.run.gather(name, *spec) : report.run.gather(name);
    if (want.size() != got.size()) {
      report.numerics_ok = false;
      report.failures.push_back(fmt("array '%s': size %zu serial vs %zu %s",
                                    name.c_str(), want.size(), got.size(),
                                    report.run.backend.c_str()));
      continue;
    }
    ++report.arrays_checked;
    for (size_t i = 0; i < want.size(); ++i) {
      const double err = std::abs(want[i] - got[i]);
      report.max_abs_err = std::max(report.max_abs_err, err);
      if (!(err <= kTolerance)) {  // catches NaN too
        report.numerics_ok = false;
        report.failures.push_back(
            fmt("array '%s'[flat %zu]: serial %.17g, %s %.17g (|err| %.3g)",
                name.c_str(), i, want[i], report.run.backend.c_str(), got[i],
                err));
        break;  // one sample per array keeps the report readable
      }
    }
  }

  // -- counts: observed traffic vs the simulator's static prediction ------
  if (options.backend != BackendKind::Simulator) {
    report.predicted = make_backend(BackendKind::Simulator)->execute(spmd);
    const ExecResult& obs = report.run;
    const ExecResult& pred = report.predicted;
    auto mismatch = [&](const char* what, long long o, long long p) {
      report.counts_ok = false;
      report.failures.push_back(
          fmt("%s: observed %lld, predicted %lld", what, o, p));
    };
    if (obs.messages != pred.messages)
      mismatch("total messages", obs.messages, pred.messages);
    if (obs.bytes != pred.bytes) mismatch("total bytes", obs.bytes, pred.bytes);
    if (obs.remaps_executed != pred.remaps_executed)
      mismatch("remaps", obs.remaps_executed, pred.remaps_executed);
    if (obs.remap_bytes != pred.remap_bytes)
      mismatch("remap bytes", obs.remap_bytes, pred.remap_bytes);
    for (int p = 0; p < obs.n_procs; ++p) {
      const ProcStats& o = obs.per_proc[static_cast<size_t>(p)];
      const ProcStats& s = pred.per_proc[static_cast<size_t>(p)];
      if (o.sends != s.sends)
        mismatch(fmt("P%d sends", p).c_str(), o.sends, s.sends);
      if (o.recvs != s.recvs)
        mismatch(fmt("P%d recvs", p).c_str(), o.recvs, s.recvs);
      if (o.sent_bytes != s.sent_bytes)
        mismatch(fmt("P%d sent bytes", p).c_str(), o.sent_bytes, s.sent_bytes);
      if (o.recvd_bytes != s.recvd_bytes)
        mismatch(fmt("P%d recvd bytes", p).c_str(), o.recvd_bytes,
                 s.recvd_bytes);
    }
  }
  return report;
}

std::string HarnessReport::text() const {
  std::ostringstream out;
  out << "harness: " << run.backend << " backend, " << run.n_procs
      << " processor(s), " << fmt("%.2f", run.wall_ms) << " ms wall";
  if (run.sim_time_us > 0)
    out << ", " << fmt("%.1f", run.sim_time_us) << " us simulated";
  out << "\n";
  out << "harness: numerics vs serial: "
      << (numerics_ok ? "OK" : "MISMATCH") << " (" << arrays_checked
      << " array(s), max |err| " << fmt("%.3g", max_abs_err) << ")\n";
  if (!predicted.backend.empty()) {
    out << "harness: traffic vs simulator prediction: "
        << (counts_ok ? "OK" : "MISMATCH") << " (" << run.messages
        << " message(s), " << run.bytes << " byte(s), " << run.remaps_executed
        << " remap(s), " << run.remap_bytes << " remap byte(s))\n";
  }
  for (const std::string& failure : failures)
    out << "harness:   " << failure << "\n";
  return out.str();
}

}  // namespace fortd
