// Shared Fortran D workload generators for the benchmark harness.
// Each generator corresponds to a program from the paper (Figures 1, 4,
// 15, and the dgefa case study), parameterized by problem size.
#pragma once

#include <string>

namespace fortd::bench {

/// Figure 1: 1-D BLOCK stencil inside a subroutine.
inline std::string stencil1d(int64_t n, int shift = 5) {
  std::string N = std::to_string(n);
  std::string S = std::to_string(shift);
  return R"(
      program p1
      real x()" + N + R"()
      integer i
      distribute x(block)
      do i = 1, )" + N + R"(
        x(i) = i * 0.5
      enddo
      call f1(x)
      end
      subroutine f1(x)
      real x()" + N + R"()
      integer i
      do i = 1, )" + N + " - " + S + R"(
        x(i) = 0.25*x(i+)" + S + R"() + 1.0
      enddo
      end
)";
}

/// Figure 4: 2-D program whose subroutine is called under row-BLOCK and
/// column-BLOCK reaching decompositions; `trips` caller iterations.
inline std::string fig4(int64_t n, int64_t trips) {
  std::string N = std::to_string(n);
  std::string T = std::to_string(trips);
  return R"(
      program p1
      real x()" + N + "," + N + R"()
      real y()" + N + "," + N + R"()
      integer i, j
      align y(i,j) with x(j,i)
      distribute x(block,:)
      do i = 1, )" + N + R"(
        do j = 1, )" + N + R"(
          x(i,j) = i + 0.01*j
          y(i,j) = j + 0.01*i
        enddo
      enddo
      do i = 1, )" + T + R"(
        call f1(x, i)
      enddo
      do j = 1, )" + T + R"(
        call f1(y, j)
      enddo
      end
      subroutine f1(z, i)
      real z()" + N + "," + N + R"()
      integer i, k
      do k = 1, )" + N + R"( - 5
        z(k,i) = 0.5*z(k+5,i)
      enddo
      end
)";
}

/// Figure 15: time-step loop with a redistributing callee.
inline std::string fig15(int64_t n, int64_t steps) {
  std::string N = std::to_string(n);
  std::string T = std::to_string(steps);
  return R"(
      program p1
      real x()" + N + R"()
      integer k, i
      distribute x(block)
      do i = 1, )" + N + R"(
        x(i) = i * 1.0
      enddo
      do k = 1, )" + T + R"(
        call f1(x)
        call f1(x)
      enddo
      call f2(x)
      end
      subroutine f1(x)
      real x()" + N + R"()
      integer i
      distribute x(cyclic)
      do i = 1, )" + N + R"(
        x(i) = x(i) + 1.0
      enddo
      end
      subroutine f2(x)
      real x()" + N + R"()
      integer i
      do i = 1, )" + N + R"(
        x(i) = 2.0 * i
      enddo
      end
)";
}

/// The dgefa case study: LU factorization with partial pivoting, the
/// matrix CYCLIC by columns, BLAS-style leaf subroutines.
inline std::string dgefa(int64_t n) {
  std::string N = std::to_string(n);
  return R"(
      program main
      parameter (n = )" + N + R"()
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
      parameter (nmax = )" + N + R"()
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
      parameter (nmax = )" + N + R"()
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
      parameter (nmax = )" + N + R"()
      real a(nmax,nmax)
      integer k, n, i
      do i = k+1, n
        a(i,k) = a(i,k) / a(k,k)
      enddo
      end

      subroutine daxpy(a, k, j, n)
      parameter (nmax = )" + N + R"()
      real a(nmax,nmax)
      integer k, j, n, i
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      end
)";
}

/// A call chain of `depth` procedures for recompilation / compile-time
/// studies; each level calls the next and does local stencil work.
inline std::string call_chain(int depth, int64_t n) {
  std::string N = std::to_string(n);
  std::string src = R"(
      program p
      real x()" + N + R"()
      integer i
      distribute x(block)
      do i = 1, )" + N + R"(
        x(i) = i*1.0
      enddo
      call level1(x)
      end
)";
  for (int d = 1; d <= depth; ++d) {
    src += "\n      subroutine level" + std::to_string(d) + "(a)\n";
    src += "      real a(" + N + ")\n      integer i\n";
    src += "      do i = 1, " + N + " - 2\n";
    src += "        a(i) = 0.5*a(i+" + std::to_string(1 + d % 2) + ")\n";
    src += "      enddo\n";
    if (d < depth)
      src += "      call level" + std::to_string(d + 1) + "(a)\n";
    src += "      end\n";
  }
  return src;
}

/// A wide fan-out: the program calls `width` independent leaf subroutines
/// once each, so the ACG has two wavefront levels (all leaves, then the
/// program) and the leaves can be generated fully in parallel. Exercises
/// the parallel-codegen scheduler and the procedure cache.
/// `edited_leaf`, when in [1, width], perturbs that leaf's body
/// (a different stencil coefficient) to model a one-procedure edit: the
/// leaf's structural hash changes while its exported interface (same
/// shift distance, same formals) stays identical.
inline std::string fan_out(int width, int64_t n, int edited_leaf = 0) {
  std::string N = std::to_string(n);
  std::string src = R"(
      program p
      real x()" + N + R"()
      integer i
      distribute x(block)
      do i = 1, )" + N + R"(
        x(i) = i*1.0
      enddo
)";
  for (int d = 1; d <= width; ++d)
    src += "      call leaf" + std::to_string(d) + "(x)\n";
  src += "      end\n";
  for (int d = 1; d <= width; ++d) {
    std::string coeff = d == edited_leaf ? "0.25" : "0.5";
    std::string shift = std::to_string(1 + d % 3);
    src += "\n      subroutine leaf" + std::to_string(d) + "(a)\n";
    src += "      real a(" + N + ")\n      integer i\n";
    src += "      do i = 1, " + N + " - 3\n";
    src += "        a(i) = " + coeff + "*a(i+" + shift + ")\n";
    src += "      enddo\n      end\n";
  }
  return src;
}

/// A serial call chain of `depth` procedures next to `width` independent
/// leaves, all called from the program. The ACG has depth+1 levels; a
/// schedule with a barrier per level would generate the wide leaf level
/// first, then pay a one-procedure barrier per chain link with every
/// other worker idle. The work-stealing schedule overlaps the chain with
/// the leaves: its span is max(chain, leaves/jobs) instead of their sum.
inline std::string chain_fanout(int depth, int width, int64_t n) {
  std::string N = std::to_string(n);
  std::string src = R"(
      program p
      real x()" + N + R"()
      integer i
      distribute x(block)
      do i = 1, )" + N + R"(
        x(i) = i*1.0
      enddo
      call chain1(x)
)";
  for (int d = 1; d <= width; ++d)
    src += "      call wide" + std::to_string(d) + "(x)\n";
  src += "      end\n";
  for (int d = 1; d <= depth; ++d) {
    src += "\n      subroutine chain" + std::to_string(d) + "(a)\n";
    src += "      real a(" + N + ")\n      integer i\n";
    src += "      do i = 1, " + N + " - 2\n";
    src += "        a(i) = 0.5*a(i+" + std::to_string(1 + d % 2) + ")\n";
    src += "      enddo\n";
    if (d < depth)
      src += "      call chain" + std::to_string(d + 1) + "(a)\n";
    src += "      end\n";
  }
  for (int d = 1; d <= width; ++d) {
    std::string shift = std::to_string(1 + d % 3);
    src += "\n      subroutine wide" + std::to_string(d) + "(a)\n";
    src += "      real a(" + N + ")\n      integer i\n";
    src += "      do i = 1, " + N + " - 3\n";
    src += "        a(i) = 0.5*a(i+" + shift + ")\n";
    src += "      enddo\n      end\n";
  }
  return src;
}

/// A hub procedure invoked with `variants` distinct decompositions —
/// drives the cloning-growth study.
inline std::string cloning_hub(int variants, int64_t n) {
  std::string N = std::to_string(n);
  std::string src = "      program p\n";
  for (int v = 0; v < variants; ++v)
    src += "      real a" + std::to_string(v) + "(" + N + "," + N + ")\n";
  src += "      integer i\n";
  for (int v = 0; v < variants; ++v) {
    // Distinct BLOCK_CYCLIC block sizes make every call site's reaching
    // decomposition unique.
    src += "      distribute a" + std::to_string(v) + "(block_cyclic(" +
           std::to_string(v + 1) + "),:)\n";
  }
  for (int v = 0; v < variants; ++v) {
    src += "      do i = 1, " + N + "\n";
    src += "        call hub(a" + std::to_string(v) + ", i)\n";
    src += "      enddo\n";
  }
  src += "      end\n";
  src += "      subroutine hub(z, i)\n      real z(" + N + "," + N + ")\n";
  src += "      integer i, k\n      do k = 1, " + N + " - 1\n";
  src += "        z(k,i) = 0.5*z(k+1,i)\n      enddo\n      end\n";
  return src;
}

/// `width` independent stencil leaves plus a hub invoked under `variants`
/// distinct decompositions. The cloning fixed point needs an extra round
/// for the hub's clones while the leaves never change, so incremental IPA
/// re-analyzes only the clones and the retargeted main program — the
/// leaves' summaries/effects/reaching are carried over.
inline std::string cloning_fanout(int width, int variants, int64_t n) {
  std::string N = std::to_string(n);
  std::string src = "      program p\n";
  src += "      real x(" + N + ")\n";
  for (int v = 0; v < variants; ++v)
    src += "      real a" + std::to_string(v) + "(" + N + "," + N + ")\n";
  src += "      integer i\n";
  src += "      distribute x(block)\n";
  for (int v = 0; v < variants; ++v)
    src += "      distribute a" + std::to_string(v) + "(block_cyclic(" +
           std::to_string(v + 1) + "),:)\n";
  src += "      do i = 1, " + N + "\n        x(i) = i*1.0\n      enddo\n";
  for (int d = 1; d <= width; ++d)
    src += "      call leaf" + std::to_string(d) + "(x)\n";
  for (int v = 0; v < variants; ++v) {
    src += "      do i = 1, " + N + "\n";
    src += "        call hub(a" + std::to_string(v) + ", i)\n";
    src += "      enddo\n";
  }
  src += "      end\n";
  for (int d = 1; d <= width; ++d) {
    std::string shift = std::to_string(1 + d % 3);
    src += "\n      subroutine leaf" + std::to_string(d) + "(a)\n";
    src += "      real a(" + N + ")\n      integer i\n";
    src += "      do i = 1, " + N + " - 3\n";
    src += "        a(i) = 0.5*a(i+" + shift + ")\n";
    src += "      enddo\n      end\n";
  }
  src += "\n      subroutine hub(z, i)\n      real z(" + N + "," + N + ")\n";
  src += "      integer i, k\n      do k = 1, " + N + " - 1\n";
  src += "        z(k,i) = 0.5*z(k+1,i)\n      enddo\n      end\n";
  return src;
}

}  // namespace fortd::bench
