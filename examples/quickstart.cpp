// Quickstart: compile the paper's Figure 1 program — a 1-D BLOCK
// distributed stencil inside a subroutine — print the generated SPMD
// message-passing code (compare with the paper's Figure 2), run it on the
// simulated 4-processor machine, and check the numerical result against a
// sequential execution.
#include <cmath>
#include <cstdio>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"

namespace {

const char* kFigure1 = R"(
      program p1
      real x(100)
      integer i
      distribute x(block)
      do i = 1, 100
        x(i) = i * 0.01
      enddo
      call f1(x)
      end

      subroutine f1(x)
      real x(100)
      integer i
      do i = 1, 95
        x(i) = f(x(i+5))
      enddo
      end
)";

}  // namespace

int main() {
  using namespace fortd;

  CodegenOptions options;
  options.n_procs = 4;
  options.strategy = Strategy::Interprocedural;

  Compiler compiler(options);
  CompileResult result = compiler.compile_source(kFigure1);

  std::printf("=== Generated SPMD program (cf. paper Fig. 2) ===\n%s\n",
              print_spmd(result.spmd).c_str());

  ExecResult run = simulate(result.spmd);
  std::printf("simulated time: %.1f us, messages: %lld, bytes: %lld\n",
              run.sim_time_us, static_cast<long long>(run.messages),
              static_cast<long long>(run.bytes));

  // Sequential reference.
  double x[101];
  for (int i = 1; i <= 100; ++i) x[i] = i * 0.01;
  for (int i = 1; i <= 95; ++i) x[i] = 0.5 * x[i + 5] + 1.0;  // f(x)=0.5x+1

  DecompSpec block;
  block.dists = {DistSpec{DistKind::Block, 0}};
  std::vector<double> got = run.gather("x", block);
  double max_err = 0.0;
  for (int i = 1; i <= 100; ++i)
    max_err = std::max(max_err, std::fabs(got[static_cast<size_t>(i - 1)] - x[i]));
  std::printf("max |parallel - sequential| = %.3g  (%s)\n", max_err,
              max_err < 1e-12 ? "PASS" : "FAIL");
  return max_err < 1e-12 ? 0 : 1;
}
