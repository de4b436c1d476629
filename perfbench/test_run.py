#!/usr/bin/env python3
"""Tests of the benchmark's own checks and of its seeded inputs.

    python3 perfbench/test_run.py

Builds the benchmark's binaries first if needed (as run.py does). Each
check must be able to fail, and a failed check must count as a failed op;
one seed must give byte-identical inputs twice, another seed other inputs.
"""
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINS = None


def setUpModule():
    global BINS
    BINS = run.build()


class Scratch(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="perfbench-test-")
        self.children = run.Children()
        self.addCleanup(shutil.rmtree, self.dir, True)
        self.addCleanup(self.children.stop_all)

    def workload(self, cls, seed=1, seconds=0):
        d = tempfile.mkdtemp(dir=self.dir)
        return cls(BINS, seed, seconds, False, d, self.children)

    def fake(self, rc=0, out=b"", err=""):
        res = run.OpResult()
        res.rc, res.wall_ms, res.cpu_ms, res.rss_kb = rc, 1.0, 1.0, 1
        res.out, res.err = out, err
        return res


def inputs(cls, seed, d):
    """Every source text a workload's first two rounds compile."""
    wl = cls(BINS, seed, 0, False, d, None)
    wl.plan()
    src = os.path.join(d, "src")
    os.makedirs(src)
    if issubclass(cls, run.EditWorkload):
        seqs = wl.make_sequences(run.emit(BINS, wl.base_plan, src))
        texts = [s.base() for s in seqs]
        for r in range(2):
            for op in wl.round_ops(r):
                texts.append(seqs[op["seq"]].step(r, op["step"])[1])
        return texts
    sources = run.emit(BINS, wl.programs, src)
    order = [p[0] for p in wl.programs] if cls is run.ColdBuild else \
        [f"{p[0]}/{s}" for p, s in wl.order]
    return [sources[n] for n in sorted(sources)] + order


class SeededInputs(Scratch):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for cls in (run.ColdBuild, run.EditRestart, run.EditServed, run.RunCheck):
            with self.subTest(workload=cls.name):
                a = inputs(cls, 7, tempfile.mkdtemp(dir=self.dir))
                b = inputs(cls, 7, tempfile.mkdtemp(dir=self.dir))
                c = inputs(cls, 8, tempfile.mkdtemp(dir=self.dir))
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_edit_workloads_share_inputs(self):
        a = inputs(run.EditRestart, 3, tempfile.mkdtemp(dir=self.dir))
        b = inputs(run.EditServed, 3, tempfile.mkdtemp(dir=self.dir))
        self.assertEqual(a, b)


class Manifest(unittest.TestCase):
    """Every workload prints every metric of BENCHMARK.json."""

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in manifest[key]], ours)
        self.assertEqual(sorted(w["name"] for w in manifest["workloads"]),
                         sorted(run.WORKLOADS))

    def test_every_workload_reports_every_layer(self):
        # One op whose trace holds every span and count any workload
        # records; each workload must turn it into exactly PER_LAYER.
        names = {span for _, span in run.Workload.LAYER_SPANS} | {
            "runtime.harness"}
        counts = {m for m, _ in run.Workload.LAYER_COUNTS} | {
            "runtime.harness_exec_ms", "service.queue_ms", "service.parse_ms",
            "service.compile_ms"}
        trace = {"spans": [{"name": n, "start_us": 0.0, "end_us": 1000.0, "op": 0}
                           for n in sorted(names)],
                 "counts": [{"name": n, "value": 0.25, "op": 0} for n in sorted(counts)]}
        for cls in run.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                wl = cls(None, 1, 0, True, None, None)
                out = wl.layer_metrics(trace, [{"id": 0, "process": 5.0}])
                self.assertEqual({k: u for k, (_, u) in out.items()}, dict(run.PER_LAYER))


class ScratchDir(unittest.TestCase):
    def test_no_tmpfs_is_an_error(self):
        saved = run.TMPFS
        self.addCleanup(setattr, run, "TMPFS", saved)
        run.TMPFS = os.path.join(tempfile.gettempdir(), "perfbench-no-such-dir")
        with self.assertRaises(run.BenchError):
            run.private_scratch("cold_build")


class ColdBuildChecks(Scratch):
    def op(self):
        wl = self.workload(run.ColdBuild)
        wl.plan()
        state = wl.setup(os.path.join(wl.scratch))
        op = next(o for o in wl.round_ops(0) if o["name"].startswith("clone_"))
        return wl, op, run.run_op(wl.op_argv(op, state))

    def test_counts_match_then_fail_when_expectation_is_wrong(self):
        wl, op, res = self.op()
        self.assertIsNone(wl.check(op, res))
        vec, clones = wl.expect[op["name"]]
        wl.expect[op["name"]] = (vec, clones + 1)
        self.assertIn("clones", wl.check(op, res))
        wl.expect[op["name"]] = (vec + 1, clones)
        self.assertIn("vectorized", wl.check(op, res))

    def test_analyze_warning_and_nonzero_exit_fail(self):
        wl, op, res = self.op()
        res.err = res.err.replace("analyze: 0 warning(s)", "analyze: 1 warning(s)")
        self.assertIn("warning", wl.check(op, res))
        self.assertIn("exit 1", wl.check(op, self.fake(rc=1, err="fortdc: boom")))

    def test_cold_build_that_reuses_a_procedure_fails(self):
        wl, op, res = self.op()
        self.assertIsNone(wl.check(op, res))
        m = run.GENERATED.search(res.err)
        self.assertEqual(m.group(1), m.group(2))
        self.assertEqual(op["generated"], int(m.group(1)))
        res.err = res.err.replace(m.group(0), f"{int(m.group(1)) - 1}/{m.group(2)} generated")
        self.assertIn("without a warm cache", wl.check(op, res))
        res.err = res.err.replace(" generated", "")
        self.assertIn("no regenerated-procedure count", wl.check(op, res))

    def test_finding_fails_through_werror(self):
        wl, op, _ = self.op()
        # A program with a lint finding: the real op exits 3.
        op["path"] = os.path.join(run.ROOT, "tests", "lint", "call_mismatch.fd")
        res = run.run_op(wl.op_argv(op, {"dir": wl.scratch, "n": 1000}))
        self.assertEqual(res.rc, 3)
        self.assertIn("exit 3", wl.check(op, res))
        # A verifier diagnostic leaves the summary's counts at 0; the exit
        # code alone fails the op.
        err = ("fortdc: analyze: 0 warning(s), 0 note(s); spmd: 2 send(s), 2 recv(s), "
               "0 collective(s), 6 matched, 0 unmatched\n"
               "fortdc: 0 clone(s), 2 reduced loop(s), 0 guard(s), 2 vectorized message(s), "
               "0 delayed comm(s), 0 run-time-resolved stmt(s)\n"
               "fortdc: -Werror: 1 finding(s)\n")
        self.assertIn("exit 3", wl.check(op, self.fake(rc=3, err=err)))


class EditChecks(Scratch):
    def test_coefficients_distinct_and_same_width(self):
        values = list(itertools.islice(run.coefficient_stream(random.Random(1)), 5000))
        self.assertEqual(len(set(values)), len(values))
        self.assertEqual(len({int(float(v) * 4096.0) for v in values}), len(values))
        self.assertEqual({len(v) for v in values}, {6})
        self.assertTrue(all(v[-1] != "0" for v in values))
        # Enough for the rounds MAX_COEFFICIENTS promises, then a clear error.
        stream = run.coefficient_stream(random.Random(2))
        self.assertEqual(sum(1 for _ in itertools.islice(stream, run.MAX_COEFFICIENTS)),
                         run.MAX_COEFFICIENTS)
        with self.assertRaises(run.BenchError):
            next(stream)

    def test_changed_listing_byte_fails(self):
        wl = self.workload(run.EditRestart)
        wl.plan()
        src = os.path.join(wl.scratch, "src")
        os.makedirs(src)
        sources = run.emit(BINS, wl.base_plan[3:], src)   # the call_chain base
        path = os.path.join(src, "base_chain.fd")
        good = run.run_op([BINS["fortdc"], "-p", "4", path]).out
        bad = bytearray(good)
        bad[len(bad) // 2] ^= 1
        ops = [{"path": path, "text": hashlib.sha1(sources["base_chain"].encode()).digest(), "error": None,
                "res": self.fake(out=good)},
               {"path": path, "text": hashlib.sha1(sources["base_chain"].encode()).digest(), "error": None,
                "res": self.fake(out=bytes(bad))}]
        wl.finish(None, ops)
        self.assertIsNone(ops[0]["error"])
        self.assertIn("listing differs", ops[1]["error"])

    def test_wrong_regenerated_count_fails(self):
        wl = self.workload(run.EditRestart)
        err = "fortdc: bind 1ms, ... (jobs=1, 2 level(s), {}/300 generated), total 9ms\n"
        op = {"kind": "body"}
        self.assertIsNone(wl.check(op, self.fake(err=err.format(1))))
        self.assertIn("expected 1", wl.check(op, self.fake(err=err.format(2))))
        op = {"kind": "revert"}
        self.assertIn("expected 0", wl.check(op, self.fake(err=err.format(1))))

    def test_served_op_falls_back_when_daemon_is_gone(self):
        wl = self.workload(run.EditServed)
        wl.plan()
        src = os.path.join(wl.scratch, "src")
        os.makedirs(src)
        run.emit(BINS, wl.base_plan[3:], src)
        path = os.path.join(src, "base_chain.fd")
        cache = os.path.join(wl.scratch, "cache")
        os.mkdir(cache)
        daemon = run.Daemon(BINS["fortdd"], cache, self.children)
        op = {"kind": "revert"}
        served = run.run_op(wl.client_argv(daemon, path))
        self.assertIn("expected 0", wl.check(op, served))   # a cold compile
        self.assertIsNone(wl.check(op, run.run_op(wl.client_argv(daemon, path))))
        daemon.stop()
        fell_back = run.run_op(wl.client_argv(daemon, path))
        self.assertEqual(fell_back.rc, 0)                   # fortdc compiled locally
        self.assertIn("fell back", wl.check(op, fell_back))


class RunCheckChecks(Scratch):
    def setUp(self):
        super().setUp()
        self.wl = self.workload(run.RunCheck)
        self.wl.plan()
        self.state = self.wl.setup(os.path.join(self.wl.scratch))

    def test_real_ops_pass(self):
        for op in self.wl.round_ops(0)[:6]:
            self.assertIsNone(self.wl.check(op, run.run_op(self.wl.op_argv(op, self.state))))
            self.assertGreater(op["generated"], 0)

    def test_harness_exit_5_fails(self):
        op = self.wl.round_ops(0)[0]
        err = "harness: numerics vs serial: MISMATCH (1 array(s))\n" \
              "fortdc: execution harness mismatch\n"
        self.assertIn("exit 5", self.wl.check(op, self.fake(rc=5, err=err)))

    def test_wrong_message_count_fails(self):
        op = next(o for o in self.wl.round_ops(0) if o["name"] == "ex_jacobi inter")
        res = run.run_op(self.wl.op_argv(op, self.state))
        self.assertIsNone(self.wl.check(op, res))
        self.assertIn("OK (120 message(s), 960 byte(s)", res.err)   # 2*T*(P-1)
        res.err = res.err.replace("120 message(s)", "121 message(s)")
        self.assertIn("prediction", self.wl.check(op, res))
        # A closed form that disagrees with the run also fails.
        self.wl.closed_form = lambda prog, strategy: (119, 960)
        op2 = dict(op)
        self.assertIn("closed form", self.wl.check(
            op2, run.run_op(self.wl.op_argv(op2, self.state))))

    def test_failed_check_counts_as_failed_op(self):
        wl = self.workload(run.RunCheck)
        real = wl.check
        wl.check = lambda op, res: "injected" if op["prog"][0] == "ex_adi" else real(op, res)
        with contextlib.redirect_stderr(io.StringIO()):
            metrics = wl.run()
        self.assertGreaterEqual(wl.attempted, run.MIN_OPS)
        self.assertEqual(wl.failed, wl.attempted // len(wl.order) * 3)
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, dict(run.END_TO_END))
        self.assertTrue(all(v > 0 for v, _ in metrics.values()))


if __name__ == "__main__":
    unittest.main()
