// A fresh per-test cache directory under gtest's temp root, a reader of
// the pack the ContentStore keeps there, and fortdc run as a process,
// shared by the test files that exercise the persistent cache and the
// compile service.
#pragma once

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace fortd::test {

// The pid suffix keeps concurrent ctest processes apart: the tsan label
// runs whole suites in one process while ctest -j runs the same cases
// again as individual processes, and two of them must never share a dir.
inline std::string fresh_cache_dir(const std::string& name) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(::testing::TempDir()) /
                 ("fortd_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// One record of `<dir>/pack`: u8 kind length | kind | envelope, where the
/// envelope is magic(4) | format hash(8) | digest(8) | size(8) | payload |
/// checksum(8), integers little-endian.
struct PackRecord {
  std::string kind;
  uint64_t digest = 0;
  size_t offset = 0;  // of the kind-length byte
  size_t size = 0;    // the whole record
};

/// The well-framed records of `<dir>/pack`, in file order.
inline std::vector<PackRecord> pack_records(const std::string& dir) {
  std::ifstream in(std::filesystem::path(dir) / "pack", std::ios::binary);
  const std::vector<uint8_t> pack((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  const auto u64_at = [&](size_t at) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<uint64_t>(pack[at + static_cast<size_t>(i)]) << (i * 8);
    return v;
  };
  std::vector<PackRecord> out;
  size_t off = 0;
  while (off < pack.size()) {
    const size_t k = pack[off];
    const size_t env = off + 1 + k;
    if (env + 28 > pack.size()) break;
    PackRecord r;
    r.kind.assign(pack.begin() + static_cast<long>(off) + 1,
                  pack.begin() + static_cast<long>(env));
    r.digest = u64_at(env + 12);
    r.offset = off;
    r.size = 1 + k + 28 + u64_at(env + 20) + 8;
    if (r.size > pack.size() - off) break;
    out.push_back(r);
    off += r.size;
  }
  return out;
}

/// What a fortdc process printed and how it exited.
struct FortdcRun {
  int exit_code = -1;  // -1: died on a signal
  std::string out;
  std::string err;
};

inline std::string slurp_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The shell command running fortdc with `args` on `source`, written to
/// `dir/name.fd`, with its stdout and stderr in `dir/name.out` and
/// `dir/name.err`.
inline std::string fortdc_command(const std::filesystem::path& dir,
                                  const std::string& name,
                                  const std::string& source,
                                  const std::string& args) {
  std::ofstream(dir / (name + ".fd")) << source;
  return std::string(FORTD_FORTDC_PATH) + " " + args + " " +
         (dir / (name + ".fd")).string() + " > " +
         (dir / (name + ".out")).string() + " 2> " +
         (dir / (name + ".err")).string();
}

/// The run `fortdc_command(dir, name, ...)` described, given its exit
/// status.
inline FortdcRun fortdc_run(const std::filesystem::path& dir,
                            const std::string& name, int status) {
  FortdcRun run;
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  run.out = slurp_text(dir / (name + ".out"));
  run.err = slurp_text(dir / (name + ".err"));
  return run;
}

/// Run fortdc with `args` on `source` as `dir/name`.
inline FortdcRun run_fortdc(const std::filesystem::path& dir,
                            const std::string& name, const std::string& source,
                            const std::string& args) {
  return fortdc_run(
      dir, name, std::system(fortdc_command(dir, name, source, args).c_str()));
}

}  // namespace fortd::test
