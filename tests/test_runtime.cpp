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
//   * backend-name parsing.
// Deadlock, failure and message-order cases run hand-built programs in
// test_extensions.cpp.
#include <gtest/gtest.h>

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
