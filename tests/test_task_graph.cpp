// The barrier-free work-stealing scheduler (TaskGraph) and its three
// consumers:
//   * TaskGraph shape tests — chain, diamond, fan — respect dependency
//     order under stealing and account
//     executed/stolen/ready-peak/critical-path,
//   * exception policy: dependents of a failed node are cancelled, every
//     independent node still runs, the lowest-index failure is rethrown
//     (the serial first-failure), and the pool survives for reuse,
//   * random DAGs, duplicate edges and the empty graph run every node
//     exactly once after its dependencies; a second run() is refused;
//     TaskGraphStats sums counts and keeps peaks,
//   * byte-identity: the serial schedule (jobs 1) and the parallel one
//     (jobs 2 and 4) print identical SPMD programs with identical cache
//     hit/miss counts,
//   * both IPA propagation passes produce identical maps serially and
//     on a pool,
//   * ThreadPool satellite: parallel_for(0) never touches batch state.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "../bench/programs.hpp"
#include "codegen/spmd_printer.hpp"
#include "cache_dir.hpp"
#include "driver/compiler.hpp"
#include "frontend/parser.hpp"
#include "support/task_graph.hpp"
#include "support/thread_pool.hpp"

namespace fortd {
namespace {

using test::fresh_cache_dir;

// ---------------------------------------------------------------------------
// TaskGraph shapes
// ---------------------------------------------------------------------------

/// Records completion order and asserts every dependency finished before
/// its dependent started.
struct OrderRecorder {
  std::mutex mu;
  std::vector<size_t> done;
  std::vector<char> finished;

  explicit OrderRecorder(size_t n) : finished(n, 0) {}

  void body(size_t i, const std::vector<std::pair<size_t, size_t>>& edges) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [node, dep] : edges)
      if (node == i)
        EXPECT_TRUE(finished[dep]) << "node " << i << " ran before dep " << dep;
    finished[i] = 1;
    done.push_back(i);
  }
};

void run_shape(size_t n, const std::vector<std::pair<size_t, size_t>>& edges,
               ThreadPool* pool, size_t expect_critical_path) {
  TaskGraph graph(n);
  for (const auto& [node, dep] : edges) graph.add_dependency(node, dep);
  OrderRecorder rec(n);
  graph.run(pool, [&](size_t i) { rec.body(i, edges); });
  EXPECT_EQ(rec.done.size(), n);
  EXPECT_EQ(graph.stats().executed, n);
  EXPECT_EQ(graph.stats().cancelled, 0u);
  EXPECT_EQ(graph.stats().critical_path, expect_critical_path);
  EXPECT_GE(graph.stats().ready_peak, 1u);
}

TEST(TaskGraph, ChainDiamondAndFanRespectDependencies) {
  ThreadPool pool(3);
  // Chain 0 -> 1 -> 2 -> 3 (edges point dep -> dependent).
  run_shape(4, {{1, 0}, {2, 1}, {3, 2}}, &pool, 4);
  // Diamond: 1 and 2 depend on 0; 3 joins them.
  run_shape(4, {{1, 0}, {2, 0}, {3, 1}, {3, 2}}, &pool, 3);
  // Fan: 8 leaves feeding one root.
  {
    std::vector<std::pair<size_t, size_t>> edges;
    for (size_t leaf = 0; leaf < 8; ++leaf) edges.push_back({8, leaf});
    run_shape(9, edges, &pool, 2);
  }
  // Inline (no pool) runs in index order.
  {
    TaskGraph graph(5);
    graph.add_dependency(4, 1);
    std::vector<size_t> order;
    graph.run(nullptr, [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  }
}

// ---------------------------------------------------------------------------
// Exceptions
// ---------------------------------------------------------------------------

TEST(TaskGraph, LowestIndexFailureWinsAndPoolSurvives) {
  ThreadPool pool(3);
  // 8 independent nodes; 3 and 5 throw. Serial index order reports 3
  // first, so the parallel run must too — and nodes 0..7 except none
  // are cancelled (no dependents).
  TaskGraph graph(8);
  std::atomic<int> ran{0};
  try {
    graph.run(&pool, [&](size_t i) {
      ran++;
      if (i == 3) throw std::runtime_error("node3");
      if (i == 5) throw std::runtime_error("node5");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "node3");
  }
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(graph.stats().cancelled, 0u);

  // Dependents of a failed node are cancelled transitively; siblings run.
  TaskGraph chain(4);
  chain.add_dependency(1, 0);
  chain.add_dependency(2, 1);
  chain.add_dependency(3, 0);  // sibling branch, must still run
  std::atomic<int> ran2{0};
  try {
    chain.run(&pool, [&](size_t i) {
      ran2++;
      if (i == 1) throw std::runtime_error("mid");
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "mid");
  }
  EXPECT_EQ(ran2.load(), 3);  // 0, 1, 3; node 2 cancelled
  EXPECT_EQ(chain.stats().cancelled, 1u);

  // The pool is reusable after both throws.
  std::atomic<int> after{0};
  pool.parallel_for(16, [&](size_t) { after++; });
  EXPECT_EQ(after.load(), 16);
}

TEST(TaskGraph, InlineThrowMatchesSerialFirstFailure) {
  TaskGraph graph(4);
  std::vector<size_t> ran;
  EXPECT_THROW(graph.run(nullptr,
                         [&](size_t i) {
                           ran.push_back(i);
                           if (i == 2) throw std::runtime_error("x");
                         }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2}));
}

TEST(TaskGraph, FailedBranchCancelsTheJoinButNotTheOtherBranch) {
  // 0 -> {1, 2} -> 3 (join) -> 4, plus 5 depending on 2 alone. Node 1
  // throws: the join and everything below it are cancelled even though
  // its other input succeeded; 2 and 5 run.
  ThreadPool pool(2);
  TaskGraph graph(6);
  graph.add_dependency(1, 0);
  graph.add_dependency(2, 0);
  graph.add_dependency(3, 1);
  graph.add_dependency(3, 2);
  graph.add_dependency(4, 3);
  graph.add_dependency(5, 2);
  std::mutex mu;
  std::set<size_t> ran;
  EXPECT_THROW(graph.run(&pool,
                         [&](size_t i) {
                           {
                             std::lock_guard<std::mutex> lock(mu);
                             ran.insert(i);
                           }
                           if (i == 1) throw std::runtime_error("branch");
                         }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::set<size_t>{0, 1, 2, 5}));
  EXPECT_EQ(graph.stats().executed, 4u);
  EXPECT_EQ(graph.stats().cancelled, 2u);
}

TEST(TaskGraph, DuplicateEdgesAreCountedSymmetrically) {
  // A caller with two call sites to one callee adds the same edge twice.
  // Each copy must be released once: the node waits for its dependency
  // and still runs exactly once.
  ThreadPool pool(3);
  TaskGraph graph(4);
  graph.add_dependency(2, 0);
  graph.add_dependency(2, 0);
  graph.add_dependency(2, 1);
  graph.add_dependency(3, 2);
  graph.add_dependency(3, 2);
  graph.add_dependency(3, 2);
  const std::vector<std::pair<size_t, size_t>> edges = {
      {2, 0}, {2, 1}, {3, 2}};
  OrderRecorder rec(4);
  graph.run(&pool, [&](size_t i) { rec.body(i, edges); });
  std::vector<size_t> done = rec.done;
  std::sort(done.begin(), done.end());
  EXPECT_EQ(done, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(graph.stats().executed, 4u);
  EXPECT_EQ(graph.stats().critical_path, 3u);
}

TEST(TaskGraph, RandomDagsRunEveryNodeOnceAfterItsDependencies) {
  std::mt19937 rng(1992);
  ThreadPool one(1);
  ThreadPool three(3);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng() % 40;
    std::vector<std::pair<size_t, size_t>> edges;
    std::vector<size_t> depth(n, 1);
    for (size_t node = 1; node < n; ++node) {
      const size_t fan_in = rng() % 4;
      for (size_t k = 0; k < fan_in; ++k) {
        const size_t dep = rng() % node;
        edges.push_back({node, dep});
        depth[node] = std::max(depth[node], depth[dep] + 1);
      }
    }
    const size_t critical = *std::max_element(depth.begin(), depth.end());
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &three}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", pool size " +
                   std::to_string(pool ? pool->size() : 0));
      TaskGraph graph(n);
      for (const auto& [node, dep] : edges) graph.add_dependency(node, dep);
      OrderRecorder rec(n);
      graph.run(pool, [&](size_t i) { rec.body(i, edges); });
      std::vector<size_t> done = rec.done;
      std::sort(done.begin(), done.end());
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(done[i], i);
      EXPECT_EQ(done.size(), n);
      EXPECT_EQ(graph.stats().executed, n);
      EXPECT_EQ(graph.stats().critical_path, critical);
    }
  }
}

TEST(TaskGraph, EmptyGraphRunsNothing) {
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    TaskGraph graph(0);
    bool called = false;
    graph.run(p, [&](size_t) { called = true; });
    EXPECT_FALSE(called);
    EXPECT_EQ(graph.stats().executed, 0u);
    EXPECT_EQ(graph.stats().critical_path, 0u);
  }
}

TEST(TaskGraph, SecondRunIsALogicError) {
  // Running a graph consumes its dependency counters; a second run()
  // must refuse instead of scheduling against exhausted counters.
  ThreadPool pool(2);
  TaskGraph graph(3);
  graph.add_dependency(2, 0);
  int calls = 0;
  graph.run(nullptr, [&](size_t) { ++calls; });
  EXPECT_THROW(graph.run(&pool, [&](size_t) { ++calls; }), std::logic_error);
  EXPECT_EQ(calls, 3);
}

TEST(TaskGraphStats, PlusEqualsSumsCountsAndKeepsPeaks) {
  // The IPA passes add up the stats of every graph they run; counts and
  // times sum while the peaks stay the largest single-run value.
  TaskGraphStats total;
  TaskGraphStats a;
  a.executed = 5;
  a.stolen = 2;
  a.cancelled = 1;
  a.ready_peak = 4;
  a.critical_path = 3;
  a.idle_ms = 1.5;
  a.wall_ms = 10.0;
  TaskGraphStats b;
  b.executed = 7;
  b.stolen = 1;
  b.ready_peak = 2;
  b.critical_path = 6;
  b.idle_ms = 0.5;
  b.wall_ms = 4.0;
  total += a;
  total += b;
  EXPECT_EQ(total.executed, 12u);
  EXPECT_EQ(total.stolen, 3u);
  EXPECT_EQ(total.cancelled, 1u);
  EXPECT_EQ(total.ready_peak, 4u);
  EXPECT_EQ(total.critical_path, 6u);
  EXPECT_DOUBLE_EQ(total.idle_ms, 2.0);
  EXPECT_DOUBLE_EQ(total.wall_ms, 14.0);
}

// ---------------------------------------------------------------------------
// Byte-identity across jobs counts
// ---------------------------------------------------------------------------

std::string compile_sched(const std::string& src, int jobs,
                          CompilerStats* stats = nullptr) {
  CodegenOptions opt;
  opt.n_procs = 4;
  opt.jobs = jobs;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(src);
  if (stats) *stats = r.stats;
  return print_spmd(r.spmd);
}

class SchedulerDeterminism
    : public ::testing::TestWithParam<std::pair<const char*, std::string>> {};

TEST_P(SchedulerDeterminism, AllSchedulesPrintIdentically) {
  const std::string& src = GetParam().second;
  CompilerStats serial_stats;
  std::string serial = compile_sched(src, 1, &serial_stats);
  ASSERT_FALSE(serial.empty());
  for (int jobs : {2, 4}) {
    CompilerStats ws;
    EXPECT_EQ(serial, compile_sched(src, jobs, &ws)) << "jobs=" << jobs;
    EXPECT_EQ(serial_stats.cache_hits, ws.cache_hits) << "jobs=" << jobs;
    EXPECT_EQ(serial_stats.cache_misses, ws.cache_misses) << "jobs=" << jobs;
    EXPECT_EQ(serial_stats.generated, ws.generated) << "jobs=" << jobs;
  }
}

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

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SchedulerDeterminism,
    ::testing::Values(
        std::make_pair("jacobi", std::string(kJacobi)),
        std::make_pair("dgefa", bench::dgefa(16)),
        std::make_pair("cloning_fanout", bench::cloning_fanout(8, 4, 32)),
        std::make_pair("chain_fanout", bench::chain_fanout(6, 8, 64))),
    [](const auto& info) { return info.param.first; });

TEST(SchedulerDeterminism, RecompileRegeneratesTheSameSetUnderBothSchedules) {
  // Warm compile + one-leaf edit: the cache must regenerate exactly the
  // same procedures whether the serial or the parallel schedule probes it.
  const std::string base = bench::fan_out(12, 64);
  const std::string edited = bench::fan_out(12, 64, /*edited_leaf=*/5);
  std::vector<std::vector<std::string>> regenerated;
  for (int jobs : {1, 4}) {
    CodegenOptions opt;
    opt.n_procs = 4;
    opt.jobs = jobs;
    Compiler compiler(opt);
    compiler.compile_source(base);
    CompileResult r = compiler.compile_source(edited);
    regenerated.push_back(r.regenerated);
  }
  EXPECT_EQ(regenerated[0], (std::vector<std::string>{"leaf5"}));
  EXPECT_EQ(regenerated[0], regenerated[1]);
}

// ---------------------------------------------------------------------------
// IPA passes, serial and on a pool
// ---------------------------------------------------------------------------

std::string dump_effects(const SideEffects& fx) {
  std::ostringstream os;
  auto names = [&](const char* tag,
                   const std::map<std::string, std::set<std::string>>& m) {
    for (const auto& [proc, vars] : m) {
      os << tag << " " << proc << ":";
      for (const auto& v : vars) os << " " << v;
      os << "\n";
    }
  };
  names("gmod", fx.gmod);
  names("gref", fx.gref);
  auto sections =
      [&](const char* tag,
          const std::map<std::string, std::map<std::string, RsdList>>& m) {
        for (const auto& [proc, arrays] : m) {
          os << tag << " " << proc << ":";
          for (const auto& [a, list] : arrays) os << " " << a << "=" << list.str();
          os << "\n";
        }
      };
  sections("gdefs", fx.gdefs);
  sections("guses", fx.guses);
  return os.str();
}

TEST(SchedulerDeterminism, IpaPassesMatchAcrossSchedulers) {
  for (const std::string& src :
       {bench::dgefa(16), bench::chain_fanout(6, 8, 64),
        bench::cloning_fanout(8, 4, 32)}) {
    // One bound program, so statement pointers are comparable across runs.
    BoundProgram bp = parse_and_bind(src);
    AugmentedCallGraph acg = AugmentedCallGraph::build(bp);
    auto summaries = compute_all_summaries(bp);
    ThreadPool pool(3);

    SideEffects fx_serial = compute_side_effects(bp, acg, summaries, nullptr);
    SideEffects fx_steal = compute_side_effects(bp, acg, summaries, &pool);
    EXPECT_EQ(dump_effects(fx_serial), dump_effects(fx_steal));

    ReachingDecomps rd_serial =
        compute_reaching_decomps(bp, acg, summaries, nullptr);
    ReachingDecomps rd_steal =
        compute_reaching_decomps(bp, acg, summaries, &pool);
    EXPECT_EQ(rd_serial.reaching, rd_steal.reaching);
    EXPECT_EQ(rd_serial.at_stmt, rd_steal.at_stmt);

    // Entry presence must match too (§8 digests hash presence): the
    // pre-size/erase dance must not leave placeholders on either path.
    EXPECT_EQ(rd_serial.reaching.size(), rd_steal.reaching.size());
  }
}

TEST(SchedulerDeterminism, SchedulerChoiceDoesNotPerturbDigests) {
  // Same program compiled by two Compilers that differ only in jobs: the
  // second must hit the first's artifacts through a shared cache
  // directory — digests exclude the schedule.
  const std::string dir = fresh_cache_dir("sched_digest");
  const std::string src = bench::chain_fanout(5, 6, 64);
  auto compile_into = [&](int jobs) {
    CodegenOptions opt;
    opt.n_procs = 4;
    opt.jobs = jobs;
    CacheOptions copt;
    copt.dir = dir;
    Compiler compiler(opt, {}, {}, copt);
    return compiler.compile_source(src);
  };
  CompileResult warm = compile_into(1);
  EXPECT_EQ(warm.stats.generated, 12);
  CompileResult cold = compile_into(2);
  EXPECT_EQ(cold.stats.generated, 0)
      << "parallel digests must match serial digests";
}

// ---------------------------------------------------------------------------
// ThreadPool satellites
// ---------------------------------------------------------------------------

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
  // Batch state untouched: a real batch still works.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](size_t) { ran++; });
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace fortd
