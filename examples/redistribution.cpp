// The paper's Figure 15/16 program: a time-step loop whose callee
// redistributes its argument from BLOCK to CYCLIC. Delayed instantiation
// moves the remapping into the caller, where the Fig. 16 optimization
// pipeline applies:
//   none            -> 4 remaps per iteration       (Fig. 16a)
//   live decomps    -> 2 remaps per iteration       (Fig. 16b)
//   + loop-invariant-> 2 remaps total               (Fig. 16c)
//   + array kills   -> 1 data-moving remap total    (Fig. 16d)
#include <cmath>
#include <cstdio>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"

namespace {

const char* kFigure15 = R"(
      program p1
      real x(100)
      integer k, i
      distribute x(block)
      do i = 1, 100
        x(i) = i * 1.0
      enddo
      do k = 1, 10
        call f1(x)
        call f1(x)
      enddo
      call f2(x)
      end

      subroutine f1(x)
      real x(100)
      integer i
      distribute x(cyclic)
      do i = 1, 100
        x(i) = x(i) + 1.0
      enddo
      end

      subroutine f2(x)
      real x(100)
      integer i
      do i = 1, 100
        x(i) = 2.0 * i
      enddo
      end
)";

int count_remaps(const fortd::SpmdProgram& spmd, bool data_moving_only) {
  int n = 0;
  for (const auto& p : spmd.ast.procedures)
    fortd::walk_stmts(p->body, [&](const fortd::Stmt& s) {
      if (s.kind == fortd::StmtKind::Remap) ++n;
      if (!data_moving_only && s.kind == fortd::StmtKind::MarkDist) ++n;
    });
  return n;
}

}  // namespace

int main(int argc, char**) {
  using namespace fortd;
  const bool verbose = argc > 1;

  struct Level {
    DynDecompOpt opt;
    const char* name;
  } levels[] = {
      {DynDecompOpt::None, "none (16a)"},
      {DynDecompOpt::Live, "live decompositions (16b)"},
      {DynDecompOpt::LiveInvariant, "+ loop-invariant hoisting (16c)"},
      {DynDecompOpt::Full, "+ array kills (16d)"},
  };

  int fail = 0;
  for (const auto& level : levels) {
    CodegenOptions options;
    options.n_procs = 4;
    options.dyn_decomp = level.opt;
    Compiler compiler(options);
    CompileResult result = compiler.compile_source(kFigure15);
    ExecResult run = simulate(result.spmd);

    // Verify values: x(i) = i, +1 twenty times, then overwritten by 2i.
    DecompSpec block;
    block.dists = {DistSpec{DistKind::Block, 0}};
    auto got = run.gather("x", block);
    double max_err = 0.0;
    for (int i = 1; i <= 100; ++i)
      max_err = std::max(max_err,
                         std::fabs(got[static_cast<size_t>(i - 1)] - 2.0 * i));

    std::printf(
        "%-32s static remap calls: %d, executed data remaps: %lld "
        "(%.0f KB moved), time %.0f us, err %.2g\n",
        level.name, count_remaps(result.spmd, true),
        static_cast<long long>(run.remaps_executed),
        run.remap_bytes / 1024.0, run.sim_time_us, max_err);
    if (verbose && level.opt == DynDecompOpt::Full)
      std::printf("%s\n", print_spmd(result.spmd).c_str());
    if (max_err > 1e-12) fail = 1;
  }
  return fail;
}
