// The paper's case study (§1/§9): LU factorization with partial pivoting
// (`dgefa` from LINPACK), written in Fortran D with `idamax`, `dswap`,
// `dscal`, and `daxpy` as separate subroutines, the matrix distributed
// CYCLIC by columns. Interprocedural compilation must:
//   * inherit the decomposition into all four leaf routines,
//   * guard the pivot search / scaling on the owner of column k and
//     broadcast the pivot index,
//   * reduce dswap's and the update's column loops to locally owned
//     columns (stride-P cyclic loops), and
//   * vectorize the pivot-column broadcast out of the j loop (one
//     broadcast per step k, placed after dscal).
//
// The factorization result is verified against a sequential LU.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"

namespace fortd_dgefa {

std::string dgefa_source(int n) {
  std::string ns = std::to_string(n);
  return R"(
      program main
      parameter (n = )" + ns + R"()
      real a(n,n)
      real ipvt(n)
      integer i, j, k, ip
      distribute a(:,cyclic)
      do j = 1, n
        do i = 1, n
          a(i,j) = modp(i*7 + j*3, 13) + 1
        enddo
        a(j,j) = a(j,j) + n*13
      enddo
      do k = 1, n-1
        call idamax(a, k, n, ip)
        ipvt(k) = ip
        if (ip .ne. k) then
          call dswap(a, k, ip, n)
        endif
        call dscal(a, k, n)
        do j = k+1, n
          call daxpy(a, k, j, n)
        enddo
      enddo
      end

      subroutine idamax(a, k, n, ip)
      parameter (nmax = )" + ns + R"()
      real a(nmax,nmax)
      integer k, n, ip, i
      real tmax
      tmax = 0.0
      ip = k
      do i = k, n
        if (abs(a(i,k)) .gt. tmax) then
          tmax = abs(a(i,k))
          ip = i
        endif
      enddo
      end

      subroutine dswap(a, k, ip, n)
      parameter (nmax = )" + ns + R"()
      real a(nmax,nmax)
      integer k, ip, n, j
      real t1
      do j = 1, n
        t1 = a(k,j)
        a(k,j) = a(ip,j)
        a(ip,j) = t1
      enddo
      end

      subroutine dscal(a, k, n)
      parameter (nmax = )" + ns + R"()
      real a(nmax,nmax)
      integer k, n, i
      do i = k+1, n
        a(i,k) = a(i,k) / a(k,k)
      enddo
      end

      subroutine daxpy(a, k, j, n)
      parameter (nmax = )" + ns + R"()
      real a(nmax,nmax)
      integer k, j, n, i
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      end
)";
}

/// Sequential reference LU (same pivoting rule).
void sequential_lu(std::vector<std::vector<double>>& a, int n) {
  for (int k = 1; k <= n - 1; ++k) {
    int ip = k;
    double tmax = 0.0;
    for (int i = k; i <= n; ++i)
      if (std::fabs(a[i][k]) > tmax) {
        tmax = std::fabs(a[i][k]);
        ip = i;
      }
    if (ip != k)
      for (int j = 1; j <= n; ++j) std::swap(a[k][j], a[ip][j]);
    for (int i = k + 1; i <= n; ++i) a[i][k] /= a[k][k];
    for (int j = k + 1; j <= n; ++j)
      for (int i = k + 1; i <= n; ++i) a[i][j] -= a[i][k] * a[k][j];
  }
}

}  // namespace fortd_dgefa

int main(int argc, char**) {
  using namespace fortd;
  const int n = 48;
  const bool verbose = argc > 1;

  CodegenOptions options;
  options.n_procs = 4;
  Compiler compiler(options);
  CompileResult result = compiler.compile_source(fortd_dgefa::dgefa_source(n));

  if (verbose) std::printf("%s\n", print_spmd(result.spmd).c_str());
  std::printf(
      "guards: %d, reduced loops: %d, scalar bcasts: %d, vectorized msgs: %d, "
      "delayed iter-sets: %d, delayed comms: %d\n",
      result.spmd.stats.guards_inserted, result.spmd.stats.loops_bounds_reduced,
      result.spmd.stats.scalar_broadcasts, result.spmd.stats.vectorized_messages,
      result.spmd.stats.delayed_iter_sets_exported,
      result.spmd.stats.delayed_comms_exported);

  ExecResult run = simulate(result.spmd);
  std::printf("simulated time: %.1f us, messages: %lld, bytes: %lld\n",
              run.sim_time_us, static_cast<long long>(run.messages),
              static_cast<long long>(run.bytes));

  // Verify against sequential LU.
  std::vector<std::vector<double>> ref(static_cast<size_t>(n + 1),
                                       std::vector<double>(static_cast<size_t>(n + 1)));
  for (int j = 1; j <= n; ++j) {
    for (int i = 1; i <= n; ++i)
      ref[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          ((i * 7 + j * 3) % 13) + 1;
    ref[static_cast<size_t>(j)][static_cast<size_t>(j)] += n * 13;
  }
  fortd_dgefa::sequential_lu(ref, n);

  DecompSpec colcyc;
  colcyc.dists = {DistSpec{DistKind::None, 0}, DistSpec{DistKind::Cyclic, 0}};
  auto got = run.gather("a", colcyc);
  double max_err = 0.0;
  for (int i = 1; i <= n; ++i)
    for (int j = 1; j <= n; ++j)
      max_err = std::max(
          max_err,
          std::fabs(got[static_cast<size_t>((i - 1) * n + (j - 1))] -
                    ref[static_cast<size_t>(i)][static_cast<size_t>(j)]));
  std::printf("max |parallel - sequential LU| = %.3g  (%s)\n", max_err,
              max_err < 1e-9 ? "PASS" : "FAIL");
  return max_err < 1e-9 ? 0 : 1;
}
