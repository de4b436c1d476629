// Jacobi relaxation with two arrays (ping-pong): the data-parallel
// workload the paper's introduction motivates. Exercises communication
// behaviour the other examples do not:
//   * both a negative (-1) and positive (+1) shift against a *different*
//     array (u_new(i) reads u(i-1) and u(i+1)), and
//   * correct placement of the vectorized messages at the top of the
//     *time* loop body — they cannot be hoisted further because the
//     copy-back writes u every time step (a true dependence carried by
//     the time loop), but they are vectorized out of the sweep loop.
#include <cmath>
#include <cstdio>
#include <vector>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"

namespace {

const char* kJacobi = R"(
      program jacobi
      real u(256)
      real unew(256)
      integer i, t
      distribute u(block)
      distribute unew(block)
      do i = 1, 256
        u(i) = modp(i*13, 97) * 1.0
      enddo
      do t = 1, 20
        do i = 2, 255
          unew(i) = 0.5 * (u(i-1) + u(i+1))
        enddo
        do i = 2, 255
          u(i) = unew(i)
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
  CompileResult result = compiler.compile_source(kJacobi);
  if (verbose) std::printf("%s\n", print_spmd(result.spmd).c_str());

  ExecResult run = simulate(result.spmd);
  // Per time step: one +1 shift and one -1 shift, each 3 guarded
  // messages at P=4 -> 6 messages x 20 steps = 120.
  std::printf("simulated time: %.1f us, messages: %lld (expect 120), bytes: %lld\n",
              run.sim_time_us, static_cast<long long>(run.messages),
              static_cast<long long>(run.bytes));

  // Sequential reference.
  const int n = 256;
  std::vector<double> u(static_cast<size_t>(n + 1)), w(static_cast<size_t>(n + 1));
  for (int i = 1; i <= n; ++i) u[static_cast<size_t>(i)] = (i * 13) % 97;
  for (int t = 0; t < 20; ++t) {
    for (int i = 2; i <= n - 1; ++i)
      w[static_cast<size_t>(i)] =
          0.5 * (u[static_cast<size_t>(i - 1)] + u[static_cast<size_t>(i + 1)]);
    for (int i = 2; i <= n - 1; ++i) u[static_cast<size_t>(i)] = w[static_cast<size_t>(i)];
  }

  DecompSpec block;
  block.dists = {DistSpec{DistKind::Block, 0}};
  auto got = run.gather("u", block);
  double max_err = 0.0;
  for (int i = 1; i <= n; ++i)
    max_err = std::max(max_err,
                       std::fabs(got[static_cast<size_t>(i - 1)] - u[static_cast<size_t>(i)]));
  bool msgs_ok = run.messages == 120;
  std::printf("max |parallel - sequential| = %.3g  (%s)\n", max_err,
              max_err < 1e-9 && msgs_ok ? "PASS" : "FAIL");
  return (max_err < 1e-9 && msgs_ok) ? 0 : 1;
}
