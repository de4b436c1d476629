// The paper's Figure 4 program: one subroutine called with a row-BLOCK
// distributed array and a column-BLOCK aligned array. Interprocedural
// compilation must (a) clone f1 for the two reaching decompositions,
// (b) reduce the caller's j loop for the column clone, and (c) vectorize
// the row clone's shift communication out of the caller's i loop
// (one 5x100 message instead of 100 5-element messages — Fig. 10 vs 12).
#include <cmath>
#include <cstdio>
#include <vector>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"

namespace {

const char* kFigure4 = R"(
      program p1
      real x(100,100)
      real y(100,100)
      integer i, j
      align y(i,j) with x(j,i)
      distribute x(block,:)
      do i = 1, 100
        do j = 1, 100
          x(i,j) = i + 0.01*j
          y(i,j) = j + 0.01*i
        enddo
      enddo
      do i = 1, 100
        call f1(x, i)
      enddo
      do j = 1, 100
        call f1(y, j)
      enddo
      end

      subroutine f1(z, i)
      real z(100,100)
      integer i, k
      do k = 1, 95
        z(k,i) = f(z(k+5,i))
      enddo
      end
)";

double f(double x) { return 0.5 * x + 1.0; }

}  // namespace

int main(int argc, char**) {
  using namespace fortd;
  const bool verbose = argc > 1;

  CodegenOptions options;
  options.n_procs = 4;
  Compiler compiler(options);
  CompileResult result = compiler.compile_source(kFigure4);

  std::printf("clones created: %d  (expect 1: f1 split into row/col versions)\n",
              result.spmd.stats.clones_created);
  std::printf("vectorized messages: %d, loops bounds-reduced: %d\n",
              result.spmd.stats.vectorized_messages,
              result.spmd.stats.loops_bounds_reduced);
  if (verbose)
    std::printf("%s\n", print_spmd(result.spmd).c_str());

  ExecResult run = simulate(result.spmd);
  std::printf("simulated time: %.1f us, messages: %lld, bytes: %lld\n",
              run.sim_time_us, static_cast<long long>(run.messages),
              static_cast<long long>(run.bytes));

  // Sequential reference.
  std::vector<std::vector<double>> x(101, std::vector<double>(101)),
      y(101, std::vector<double>(101));
  for (int i = 1; i <= 100; ++i)
    for (int j = 1; j <= 100; ++j) {
      x[i][j] = i + 0.01 * j;
      y[i][j] = j + 0.01 * i;
    }
  for (int i = 1; i <= 100; ++i)
    for (int k = 1; k <= 95; ++k) x[k][i] = f(x[k + 5][i]);
  for (int j = 1; j <= 100; ++j)
    for (int k = 1; k <= 95; ++k) y[k][j] = f(y[k + 5][j]);

  DecompSpec row, col;
  row.dists = {DistSpec{DistKind::Block, 0}, DistSpec{DistKind::None, 0}};
  col.dists = {DistSpec{DistKind::None, 0}, DistSpec{DistKind::Block, 0}};
  auto gx = run.gather("x", row);
  auto gy = run.gather("y", col);
  double max_err = 0.0;
  for (int i = 1; i <= 100; ++i)
    for (int j = 1; j <= 100; ++j) {
      size_t idx = static_cast<size_t>((i - 1) * 100 + (j - 1));
      max_err = std::max(max_err, std::fabs(gx[idx] - x[i][j]));
      max_err = std::max(max_err, std::fabs(gy[idx] - y[i][j]));
    }
  std::printf("max |parallel - sequential| = %.3g  (%s)\n", max_err,
              max_err < 1e-12 ? "PASS" : "FAIL");
  return max_err < 1e-12 ? 0 : 1;
}
