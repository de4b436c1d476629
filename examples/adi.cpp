// ADI-style alternating sweeps — the computation §6 motivates dynamic
// data decomposition with: a row phase (recurrence along rows) wants rows
// local, a column phase wants columns local, so the array is redistributed
// between phases every time step. Both sweeps then run with ZERO
// communication; all data motion is the two remaps per step, which the
// simulator charges through the remap library.
#include <cmath>
#include <cstdio>
#include <vector>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"

namespace {

const char* kAdi = R"(
      program adi
      real u(48,48)
      integer i, j, t
      distribute u(block,:)
      do i = 1, 48
        do j = 1, 48
          u(i,j) = modp(i*3 + j*5, 11) + 1
        enddo
      enddo
      do t = 1, 4
        call rowsweep(u)
        distribute u(:,block)
        call colsweep(u)
        distribute u(block,:)
      enddo
      end

      subroutine rowsweep(u)
      real u(48,48)
      integer i, j
      do i = 1, 48
        do j = 2, 48
          u(i,j) = u(i,j) + 0.5*u(i,j-1)
        enddo
      enddo
      end

      subroutine colsweep(u)
      real u(48,48)
      integer i, j
      do j = 1, 48
        do i = 2, 48
          u(i,j) = u(i,j) + 0.5*u(i-1,j)
        enddo
      enddo
      end
)";

}  // namespace

int main(int argc, char**) {
  using namespace fortd;
  const bool verbose = argc > 1;

  CodegenOptions options;
  options.n_procs = 4;
  Compiler compiler(options);
  CompileResult result = compiler.compile_source(kAdi);
  if (verbose) std::printf("%s\n", print_spmd(result.spmd).c_str());

  ExecResult run = simulate(result.spmd);
  std::printf(
      "simulated time: %.1f us, point-to-point messages: %lld, data remaps: "
      "%lld (%lld KB moved)\n",
      run.sim_time_us, static_cast<long long>(run.messages),
      static_cast<long long>(run.remaps_executed),
      static_cast<long long>(run.remap_bytes / 1024));

  // Sequential reference.
  const int n = 48;
  std::vector<std::vector<double>> u(static_cast<size_t>(n + 1),
                                     std::vector<double>(static_cast<size_t>(n + 1)));
  for (int i = 1; i <= n; ++i)
    for (int j = 1; j <= n; ++j)
      u[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          ((i * 3 + j * 5) % 11) + 1;
  for (int t = 0; t < 4; ++t) {
    for (int i = 1; i <= n; ++i)
      for (int j = 2; j <= n; ++j)
        u[static_cast<size_t>(i)][static_cast<size_t>(j)] +=
            0.5 * u[static_cast<size_t>(i)][static_cast<size_t>(j - 1)];
    for (int j = 1; j <= n; ++j)
      for (int i = 2; i <= n; ++i)
        u[static_cast<size_t>(i)][static_cast<size_t>(j)] +=
            0.5 * u[static_cast<size_t>(i - 1)][static_cast<size_t>(j)];
  }

  DecompSpec rows;
  rows.dists = {DistSpec{DistKind::Block, 0}, DistSpec{DistKind::None, 0}};
  auto got = run.gather("u", rows);
  double max_err = 0.0;
  for (int i = 1; i <= n; ++i)
    for (int j = 1; j <= n; ++j)
      max_err = std::max(
          max_err, std::fabs(got[static_cast<size_t>((i - 1) * n + (j - 1))] -
                             u[static_cast<size_t>(i)][static_cast<size_t>(j)]));
  std::printf("max |parallel - sequential| = %.3g  (%s)\n", max_err,
              max_err < 1e-6 ? "PASS" : "FAIL");
  return max_err < 1e-6 ? 0 : 1;
}
