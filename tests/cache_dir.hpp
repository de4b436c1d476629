// A fresh per-test cache directory under gtest's temp root, shared by the
// test files that exercise the persistent cache and the compile service.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

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

}  // namespace fortd::test
