// The `threads` (rendezvous) execution backend and the differential
// harness:
//   * differential correctness — every example program, under every
//     compilation strategy, at P in {1,2,4,8}, executes on the `threads`
//     backend with numerics identical to the serial reference AND
//     identical to the simulator backend (the three-way equivalence the
//     NASA debugging-support paper's harness shape calls for),
//   * observed-vs-predicted traffic — the rendezvous run's per-processor
//     message counts and payload bytes equal the simulator's predictions
//     (the paper's Fig. 11/16/17 quantities),
//   * pinned predictions — the simulator's clock and traffic for the
//     examples and the benchmark generator programs equal recorded
//     literals, bit for bit,
//   * backend-name parsing.
// Deadlock, failure and message-order cases run hand-built programs in
// test_extensions.cpp.
#include <gtest/gtest.h>

#include "../bench/programs.hpp"
#include "driver/compiler.hpp"
#include "example_programs.hpp"
#include "frontend/parser.hpp"
#include "runtime/harness.hpp"

namespace fortd {
namespace {

using examples::Example;
using examples::kExamples;

// ---------------------------------------------------------------------------
// Differential execution: threaded == simulator == serial
// ---------------------------------------------------------------------------

HarnessReport run_example(const char* source, Strategy strategy, int n_procs,
                          const HarnessOptions& hopts) {
  CodegenOptions options;
  options.n_procs = n_procs;
  options.strategy = strategy;
  Compiler compiler(options);
  CompileResult compiled = compiler.compile_source(source);
  SourceProgram original = parse_program(source);
  return run_and_check(original, compiled.spmd, hopts);
}

const Strategy kStrategies[] = {Strategy::Interprocedural,
                                Strategy::Intraprocedural,
                                Strategy::RuntimeResolution};

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Interprocedural: return "inter";
    case Strategy::Intraprocedural: return "intra";
    case Strategy::RuntimeResolution: return "runtime";
  }
  return "?";
}

TEST(RuntimeDifferential, EveryExampleEveryStrategyEveryP) {
  // 5 examples x 3 strategies x P in {1,2,4,8}: the threaded backend's
  // numerics match the serial reference, its traffic matches the
  // simulator's prediction (run_and_check asserts both), and its final
  // arrays are *bitwise* equal to the simulator backend's — the two
  // parallel backends share EvalCore, so not even round-off may differ.
  for (const Example& ex : kExamples) {
    for (Strategy strategy : kStrategies) {
      for (int P : {1, 2, 4, 8}) {
        SCOPED_TRACE(std::string(ex.name) + " -s " + strategy_name(strategy) +
                     " -P " + std::to_string(P));
        HarnessOptions hopts;
        hopts.backend = BackendKind::Threaded;
        HarnessReport hr = run_example(ex.source, strategy, P, hopts);
        EXPECT_TRUE(hr.numerics_ok) << hr.text();
        EXPECT_TRUE(hr.counts_ok) << hr.text();
        EXPECT_GT(hr.arrays_checked, 0);
        ASSERT_FALSE(hr.predicted.backend.empty());
        for (const std::string& array : hr.run.main_arrays())
          EXPECT_EQ(hr.run.gather(array), hr.predicted.gather(array))
              << "threaded and simulator backends disagree on '" << array
              << "'";
      }
    }
  }
}

TEST(RuntimeDifferential, SimulatorBackendAlsoMatchesSerial) {
  // The refactored simulator-as-backend path: same numerics checks, no
  // traffic cross-check (it would compare the run against itself).
  for (const Example& ex : kExamples) {
    SCOPED_TRACE(ex.name);
    HarnessOptions hopts;
    hopts.backend = BackendKind::Simulator;
    HarnessReport hr = run_example(ex.source, Strategy::Interprocedural, 4,
                                   hopts);
    EXPECT_TRUE(hr.ok()) << hr.text();
    EXPECT_GT(hr.run.sim_time_us, 0.0);
  }
}

TEST(RuntimeDifferential, ObservedTrafficMatchesKnownPredictions) {
  // Jacobi at P=4: one +1 and one -1 shift per time step, each 3 guarded
  // boundary messages, x 20 steps = 120 messages of one 8-byte element.
  HarnessOptions hopts;
  hopts.backend = BackendKind::Threaded;
  HarnessReport hr = run_example(examples::kJacobi,
                                 Strategy::Interprocedural, 4, hopts);
  EXPECT_TRUE(hr.ok()) << hr.text();
  EXPECT_EQ(hr.run.messages, 120);
  EXPECT_EQ(hr.run.bytes, 120 * 8);
  EXPECT_EQ(hr.run.messages, hr.predicted.messages);
  EXPECT_EQ(hr.run.bytes, hr.predicted.bytes);
  for (int p = 0; p < 4; ++p) {
    const auto& obs = hr.run.per_proc[static_cast<size_t>(p)];
    const auto& pred = hr.predicted.per_proc[static_cast<size_t>(p)];
    EXPECT_EQ(obs.sends, pred.sends) << "P" << p;
    EXPECT_EQ(obs.recvs, pred.recvs) << "P" << p;
    EXPECT_EQ(obs.sent_bytes, pred.sent_bytes) << "P" << p;
    EXPECT_EQ(obs.recvd_bytes, pred.recvd_bytes) << "P" << p;
  }

  // Redistribution: 21 block<->cyclic remaps move data in both backends,
  // and both account the same moved-byte total.
  HarnessReport rd = run_example(examples::kRedistribution,
                                 Strategy::Interprocedural, 4, hopts);
  EXPECT_TRUE(rd.ok()) << rd.text();
  EXPECT_GT(rd.run.remaps_executed, 0);
  EXPECT_EQ(rd.run.remaps_executed, rd.predicted.remaps_executed);
  EXPECT_EQ(rd.run.remap_bytes, rd.predicted.remap_bytes);
}

// ---------------------------------------------------------------------------
// Pinned predictions: the simulator's clock and counts as recorded literals
// ---------------------------------------------------------------------------

/// The simulator's prediction for one program at P=4. The clock is a
/// floating-point sum of per-event charges, so its literal pins the order
/// in which the evaluator fires its guard, loop, flop and call hooks, not
/// only how often.
struct PinnedPrediction {
  const char* program;
  Strategy strategy;
  double sim_time_us;
  int64_t messages, bytes, remaps, remap_bytes;
  int64_t flops[4];
  int64_t iterations[4];
};

const PinnedPrediction kPinned[] = {
    {"jacobi", Strategy::Interprocedural, 0x1.8a533333336d4p+12, 120, 960, 0, 0,
     {6202, 6562, 6562, 5962},
     {2604, 2644, 2644, 2604}},
    {"jacobi", Strategy::Intraprocedural, 0x1.8a533333336d4p+12, 120, 960, 0, 0,
     {6202, 6562, 6562, 5962},
     {2604, 2644, 2644, 2604}},
    {"jacobi", Strategy::RuntimeResolution, 0x1.c37051eb7f68dp+14, 120, 960, 0, 0,
     {198925, 199145, 199145, 198925},
     {10436, 10436, 10436, 10436}},
    {"adi", Strategy::Interprocedural, 0x1.b35dffffff859p+14, 0, 0, 8, 110592,
     {25129, 25129, 25129, 25129},
     {6964, 6964, 6964, 6964}},
    {"adi", Strategy::Intraprocedural, 0x1.b35dffffff859p+14, 0, 0, 8, 110592,
     {25129, 25129, 25129, 25129},
     {6964, 6964, 6964, 6964}},
    {"adi", Strategy::RuntimeResolution, 0x1.aa18eb851534dp+15, 0, 0, 8, 110592,
     {273697, 273697, 273697, 273697},
     {20788, 20788, 20788, 20788}},
    {"stencil2d", Strategy::Interprocedural, 0x1.96e28f5c2be69p+13, 3, 12000, 0, 0,
     {100676, 100683, 100683, 99669},
     {15100, 15100, 15100, 14600}},
    {"stencil2d", Strategy::Intraprocedural, 0x1.41ad28f5c3201p+14, 300, 12000, 0, 0,
     {102651, 103351, 103351, 100951},
     {15175, 15175, 15175, 14675}},
    {"stencil2d", Strategy::RuntimeResolution, 0x1.389e1999a5d7dp+16, 1500, 12000, 0, 0,
     {327751, 329251, 329251, 326251},
     {29300, 29300, 29300, 29300}},
    {"redistribution", Strategy::Interprocedural, 0x1.8dccccccccb9cp+9, 0, 0, 1, 576,
     {2069, 2069, 2069, 2069},
     {2060, 2060, 2060, 2060}},
    {"redistribution", Strategy::Intraprocedural, 0x1.2e019999998bap+14, 0, 0, 40, 23040,
     {2069, 2069, 2069, 2069},
     {2060, 2060, 2060, 2060}},
    {"redistribution", Strategy::RuntimeResolution, 0x1.33506666665f8p+14, 0, 0, 40, 23040,
     {4951, 4951, 4951, 4951},
     {2210, 2210, 2210, 2210}},
    {"dgefa", Strategy::Interprocedural, 0x1.9124ccccccd27p+12, 90, 3240, 0, 0,
     {1272, 1336, 1392, 1436},
     {443, 475, 503, 526}},
    {"dgefa", Strategy::Intraprocedural, 0x1.ebf6666666742p+13, 405, 30120, 0, 0,
     {1872, 1936, 1992, 2036},
     {539, 567, 591, 610}},
    {"dgefa", Strategy::RuntimeResolution, 0x1.ad290a3d6f82cp+15, 1430, 11440, 0, 0,
     {31296, 31344, 31388, 31428},
     {1902, 1902, 1902, 1902}},
    {"dgefa(24)", Strategy::Interprocedural, 0x1.4d647ae147c2cp+13, 138, 7176, 0, 0,
     {3410, 3554, 3686, 3802},
     {1365, 1437, 1503, 1562}},
    {"dgefa(24)", Strategy::Intraprocedural, 0x1.02e7f5c28f45p+15, 897, 104328, 0, 0,
     {4882, 5026, 5158, 5274},
     {1581, 1647, 1707, 1760}},
    {"dgefa(24)", Strategy::RuntimeResolution, 0x1.556f3d70a6632p+17, 4320, 34560, 0, 0,
     {105460, 105568, 105670, 105766},
     {5798, 5798, 5798, 5798}},
    {"stencil1d(256, 4)", Strategy::Interprocedural, 0x1.700a3d70a3d62p+7, 3, 96, 0, 0,
     {291, 298, 298, 272},
     {128, 128, 128, 124}},
    {"stencil1d(256, 4)", Strategy::Intraprocedural, 0x1.700a3d70a3d62p+7, 3, 96, 0, 0,
     {291, 298, 298, 272},
     {128, 128, 128, 124}},
    {"stencil1d(256, 4)", Strategy::RuntimeResolution, 0x1.9f5eb851eb9e3p+9, 12, 96, 0, 0,
     {4314, 4326, 4326, 4298},
     {508, 508, 508, 508}},
    {"fig4(64, 8)", Strategy::Interprocedural, 0x1.18adc28f5bbbep+12, 3, 960, 0, 0,
     {38170, 37225, 37225, 37131},
     {4776, 4296, 4296, 4256}},
    {"fig4(64, 8)", Strategy::Intraprocedural, 0x1.412a8f5c2889dp+12, 24, 960, 0, 0,
     {38305, 37409, 37409, 37217},
     {4776, 4304, 4304, 4264}},
    {"fig4(64, 8)", Strategy::RuntimeResolution, 0x1.d056147ae24eap+12, 120, 960, 0, 0,
     {35073, 34249, 34249, 34009},
     {5120, 5120, 5120, 5120}},
    {"fig15(128, 4)", Strategy::Interprocedural, 0x1.55b333333326p+9, 0, 0, 1, 768,
     {1107, 1107, 1107, 1107},
     {1092, 1092, 1092, 1092}},
    {"fig15(128, 4)", Strategy::Intraprocedural, 0x1.061b3333333cbp+13, 0, 0, 16, 12288,
     {1107, 1107, 1107, 1107},
     {1092, 1092, 1092, 1092}},
    {"fig15(128, 4)", Strategy::RuntimeResolution, 0x1.0cc00000001a2p+13, 0, 0, 16, 12288,
     {2881, 2881, 2881, 2881},
     {1284, 1284, 1284, 1284}},
    {"fan_out(24, 128)", Strategy::Interprocedural, 0x1.3facccccccbebp+11, 72, 1152, 0, 0,
     {2178, 2338, 2338, 1858},
     {800, 800, 800, 728}},
    {"fan_out(24, 128)", Strategy::Intraprocedural, 0x1.3facccccccbebp+11, 72, 1152, 0, 0,
     {2178, 2338, 2338, 1858},
     {800, 800, 800, 728}},
    {"fan_out(24, 128)", Strategy::RuntimeResolution, 0x1.1bcb5c28f718cp+13, 144, 1152, 0, 0,
     {44041, 44185, 44185, 43849},
     {3128, 3128, 3128, 3128}},
};

std::string pinned_source(const std::string& program) {
  for (const Example& ex : kExamples)
    if (program == ex.name) return ex.source;
  if (program == "dgefa(24)") return bench::dgefa(24);
  if (program == "stencil1d(256, 4)") return bench::stencil1d(256, 4);
  if (program == "fig4(64, 8)") return bench::fig4(64, 8);
  if (program == "fig15(128, 4)") return bench::fig15(128, 4);
  if (program == "fan_out(24, 128)") return bench::fan_out(24, 128);
  ADD_FAILURE() << "no source for " << program;
  return "";
}

TEST(RuntimeBackend, SimulatorPredictionsArePinned) {
  // The five examples and the five generator programs of perfbench's
  // run_check workload, each under the three strategies.
  for (const PinnedPrediction& want : kPinned) {
    SCOPED_TRACE(std::string(want.program) + " -s " +
                 strategy_name(want.strategy));
    CodegenOptions options;
    options.n_procs = 4;
    options.strategy = want.strategy;
    Compiler compiler(options);
    const CompileResult compiled =
        compiler.compile_source(pinned_source(want.program));
    const ExecResult got = simulate(compiled.spmd);
    EXPECT_EQ(got.sim_time_us, want.sim_time_us);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.remaps_executed, want.remaps);
    EXPECT_EQ(got.remap_bytes, want.remap_bytes);
    ASSERT_EQ(got.per_proc.size(), 4u);
    for (size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(got.per_proc[p].flops, want.flops[p]) << "P" << p;
      EXPECT_EQ(got.per_proc[p].iterations, want.iterations[p]) << "P" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

TEST(RuntimeBackend, ParseBackendKind) {
  EXPECT_EQ(parse_backend_kind("sim"), BackendKind::Simulator);
  EXPECT_EQ(parse_backend_kind("simulator"), BackendKind::Simulator);
  EXPECT_EQ(parse_backend_kind("threads"), BackendKind::Threaded);
  EXPECT_EQ(parse_backend_kind("threaded"), BackendKind::Threaded);
  EXPECT_FALSE(parse_backend_kind("mpi").has_value());
  EXPECT_STREQ(backend_kind_name(BackendKind::Simulator), "sim");
  EXPECT_STREQ(backend_kind_name(BackendKind::Threaded), "threads");
}

}  // namespace
}  // namespace fortd
