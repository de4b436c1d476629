#!/usr/bin/env python3
"""The fortd benchmark: one closed loop of fortdc operations per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds fortdc, fortdd
and fortd_perf into .bench_build/ (outside every timed span). A run then
sets up its inputs from the seed, runs whole rounds of ops, one op in
flight, until S seconds have passed and at least MIN_OPS ops ran, checks
every op's output, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1
the same inputs are replayed in one fortd_perf process through the
library's entry points and the metrics are per-layer. Every workload
reports every metric of BENCHMARK.json. README.md
describes the workloads, the checks and the metrics.
"""
import argparse
import hashlib
import json
import os
import random
import re
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A run's scratch state (sources, cache directories, the daemon's store)
# lives on tmpfs: cache directories on ext4 made compile times erratic
# (README.md).
TMPFS = "/dev/shm"

P = 4                # SPMD processors of every op (fortdc -p 4)
ELEM_BYTES = 8       # bytes per REAL element in a message
MIN_OPS = 100        # a p90 needs ten ops beyond it
SETUP_REPEATS = 5    # setup_s is the median of this many set-ups
OP_TIMEOUT_S = 60

# The metrics of BENCHMARK.json, (name, unit), in its order. Every workload
# reports every one of them: END_TO_END untraced, none of them ever 0, and
# PER_LAYER traced, where a layer the workload's ops never call reads 0.
END_TO_END = [
    ("setup_s", "s"), ("op_cpu_ms.p50", "ms"), ("op_cpu_ms.p90", "ms"),
    ("procs_per_cpu_s", "procs/s"), ("peak_rss_mb", "MiB"), ("spmd_bytes", "bytes/op"),
    ("regenerated", "procs/op"),
]
PER_LAYER = [
    ("frontend.parse_ms", "ms"), ("ir.bind_ms", "ms"), ("ipa.ms", "ms"),
    ("ipa.overlap_ms", "ms"), ("ipa.summaries_computed", "count"),
    ("ipa.summaries_cached", "count"), ("ipa.rounds", "count"),
    ("analysis.lint_ms", "ms"), ("analysis.verify_ms", "ms"), ("codegen.ms", "ms"),
    ("codegen.generated", "count"), ("codegen.cache_hits", "count"),
    ("codegen.print_ms", "ms"), ("codegen.print_bytes", "bytes"),
    ("driver.compile_ms", "ms"), ("driver.self_ms", "ms"), ("driver.store_open_ms", "ms"),
    ("driver.store_flush_ms", "ms"), ("driver.disk_hits", "count"),
    ("driver.disk_misses", "count"), ("driver.process_ms", "ms"),
    ("service.roundtrip_ms", "ms"), ("service.transport_ms", "ms"),
    ("service.reply_bytes", "bytes"), ("runtime.serial_ms", "ms"),
    ("runtime.threads_ms", "ms"), ("machine.exec_ms", "ms"), ("runtime.check_ms", "ms"),
    ("runtime.msgs_per_s", "msgs/s"), ("runtime.messages", "count"),
    ("runtime.msg_bytes", "bytes"), ("runtime.remap_bytes", "bytes"),
    ("machine.sim_ms", "ms"),
]
# The -timings line of a local compile: procedures generated / in the program.
GENERATED = re.compile(r"(\d+)/(\d+) generated")


class BenchError(Exception):
    """A failure of the benchmark itself or of its set-up (no result)."""


# ---------------------------------------------------------------------------
# Processes


try:
    import ctypes
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
except (ImportError, OSError, AttributeError):
    _prctl = None


def _die_with_parent():
    """Have the kernel SIGKILL a long-lived child if this process dies
    (resolved before fork: the child only makes the call)."""
    if _prctl:
        _prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Children:
    """Every long-lived child (daemons, the traced replayer), stopped and
    waited for on every exit path."""

    def __init__(self):
        self.procs = []

    def add(self, proc):
        self.procs.append(proc)
        return proc

    def stop(self, proc):
        if proc.poll() is None:
            try:
                proc.terminate()
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.procs:
            self.procs.remove(proc)

    def stop_all(self):
        for proc in list(self.procs):
            self.stop(proc)


def cpu_s():
    """CPU seconds, user plus system, of this process and of every child
    it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class OpResult:
    __slots__ = ("rc", "wall_ms", "cpu_ms", "rss_kb", "out", "err")


def run_op(argv):
    """Run one op to its exit: wall time from spawn to reap, the child's
    own CPU time and peak RSS (wait4), and its stdout/stderr."""
    res = OpResult()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    sel = selectors.DefaultSelector()
    for f in chunks:
        sel.register(f, selectors.EVENT_READ)
    deadline = t0 + OP_TIMEOUT_S
    try:
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"op timed out: {' '.join(argv)}")
            for key, _ in sel.select(timeout=left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        sel.close()
        proc.stdout.close()
        proc.stderr.close()
    res.wall_ms = (time.perf_counter() - t0) * 1e3
    proc.returncode = res.rc = os.waitstatus_to_exitcode(status)
    res.cpu_ms = (usage.ru_utime + usage.ru_stime) * 1e3
    res.rss_kb = usage.ru_maxrss
    res.out = b"".join(chunks[proc.stdout])
    res.err = b"".join(chunks[proc.stderr]).decode(errors="replace")
    return res


def run_many(argvs, jobs=4):
    """Run independent commands `jobs` at a time; (exit code, stdout) in
    order."""
    results = [None] * len(argvs)
    running = {}
    pending = list(enumerate(argvs))
    try:
        while pending or running:
            while pending and len(running) < jobs:
                i, argv = pending.pop(0)
                running[i] = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                              stdout=subprocess.PIPE,
                                              stderr=subprocess.DEVNULL)
            i = next(iter(running))
            out, _ = running[i].communicate(timeout=OP_TIMEOUT_S)
            results[i] = (running.pop(i).returncode, out)
    finally:
        for proc in running.values():
            proc.kill()
            proc.wait()
    return results


class Daemon:
    """One fortdd on an ephemeral port. Ready when it prints its
    `listening on HOST:PORT` line; stderr is drained by a thread."""

    def __init__(self, fortdd, cache_dir, children):
        self.children = children
        self.proc = children.add(subprocess.Popen(
            [fortdd, "-port", "0", "-cache-dir", cache_dir],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, preexec_fn=_die_with_parent))
        self.endpoint = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout=30) or not self.endpoint:
            self.stop()
            raise BenchError("fortdd did not report a listening port")

    def _drain(self):
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace")
            m = re.search(r"listening on (\S+):(\d+)", line)
            if m and not self.endpoint:
                self.endpoint = f"{m.group(1)}:{m.group(2)}"
                self._ready.set()
        self._ready.set()  # EOF: the daemon exited

    def cpu_s(self):
        """CPU seconds the running daemon's threads have used (schedstat's
        nanoseconds on the CPU; its threads live as long as it does)."""
        task = f"/proc/{self.proc.pid}/task"
        ns = 0
        for tid in os.listdir(task):
            try:
                with open(f"{task}/{tid}/schedstat") as f:
                    ns += int(f.read().split()[0])
            except FileNotFoundError:   # a thread that just exited
                pass
        return ns / 1e9

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for fortdd")

    def stop(self):
        self.children.stop(self.proc)
        self._reader.join(timeout=10)
        self.proc.stderr.close()


# ---------------------------------------------------------------------------
# Build (never timed)


def build():
    for need in ("src/CMakeLists.txt", "examples/fortdc.cpp",
                 "examples/fortdd.cpp", "bench/programs.hpp",
                 "tests/example_programs.hpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a fortd source checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "ab") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log,
                               stdin=subprocess.DEVNULL) != 0:
                raise BenchError(f"build failed: {' '.join(step)} (see {log_path})")
    return {name: os.path.join(BUILD_DIR, name)
            for name in ("fortdc", "fortdd", "fortd_perf")}


# ---------------------------------------------------------------------------
# Inputs


def count_procs(source):
    return len(re.findall(r"(?m)^[ \t]*(?:program|subroutine)\s", source))


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def emit(bins, plan, outdir):
    """Generate the sources of `plan` [(name, family, args...)]."""
    plan_path = os.path.join(outdir, "plan.txt")
    write(plan_path, "".join(" ".join(map(str, p)) + "\n" for p in plan))
    if subprocess.call([bins["fortd_perf"], "emit", plan_path, outdir]) != 0:
        raise BenchError("fortd_perf emit failed")
    sources = {}
    for p in plan:
        with open(os.path.join(outdir, f"{p[0]}.fd")) as f:
            sources[p[0]] = f.read()
    return sources


def ladder(lo, hi, n, rng):
    """n sizes spread geometrically over [lo, hi], each shrunk by up to 4%
    so a seed moves every size a little and the mix not at all."""
    return [max(lo, int(round(lo * (hi / lo) ** (k / (n - 1)) * (1 - 0.04 * rng.random()))))
            for k in range(n)]


def shifts_sum(width):
    return sum(1 + d % 3 for d in range(1, width + 1))


# -- stencil closed forms ----------------------------------------------------
# Messages of a shifted stencil loop run T times on P processors of a BLOCK
# distribution: message vectorization (inter, intra) sends one message per
# shift direction per neighbour pair; run-time resolution sends one per
# element. Bytes are the same for all three: ELEM_BYTES per element.


def stencil_traffic(strategy, directions, elems, trips, hoisted=False):
    elems_total = elems * trips * (P - 1)
    if strategy == "runtime":
        msgs = elems_total
    elif strategy == "inter" and hoisted:
        msgs = directions * (P - 1)      # vectorized out of the caller's loop
    else:
        msgs = directions * trips * (P - 1)
    return msgs, elems_total * ELEM_BYTES


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Common loop: set up, whole rounds of ops until the time is up, then
    the checks that need every op, then the metrics."""

    name = ""

    def __init__(self, bins, seed, seconds, trace, scratch, children):
        self.bins = bins
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.children = children
        self.correct = True
        self.failed = 0
        self.attempted = 0

    # Subclasses: plan(), setup(d), round_ops(r), op_argv(op, state),
    # check(op, res) -> error or None, finish(state, ops) and metrics().

    def seeded(self):
        """A fresh generator: the same seed gives the same inputs."""
        return random.Random(f"{self.name}:{self.seed}")

    def run(self):
        # setup_s is CPU time, not wall time: a set-up's wall time doubled
        # when other processes took the CPUs, while its CPU time barely
        # moved (README.md).
        setups, walls = [], []
        repeats = 1 if self.trace else SETUP_REPEATS   # traced runs report no setup_s
        for k in range(repeats):
            d = os.path.join(self.scratch, f"setup{k}")
            os.makedirs(d)
            t0, c0 = time.perf_counter(), cpu_s()
            state = self.setup(d)
            setups.append(cpu_s() - c0 + self.resident_cpu_s(state))
            walls.append(time.perf_counter() - t0)
            if k + 1 < repeats:
                self.discard(state)
        self.setup_s = statistics.median(setups)
        if self.trace:
            return self.run_traced(state)
        ops = []
        t_start = time.perf_counter()
        r = 0
        while time.perf_counter() - t_start < self.seconds or len(ops) < MIN_OPS:
            for slot, op in enumerate(self.round_ops(r)):
                op["slot"] = slot
                self.before_op(op, state)
                op["res"] = self.run_timed_op(op, state)
                op["error"] = self.check(op, op["res"])
                ops.append(op)
            self.after_round(r, state)
            r += 1
        t_end = time.perf_counter()
        walls_ms = [op["res"].wall_ms for op in ops]
        self.finish(state, ops)
        print(f"perfbench: {self.name}: set-ups {', '.join(f'{s:.3f}' for s in setups)} s CPU "
              f"({', '.join(f'{s:.3f}' for s in walls)} s wall); "
              f"{len(ops)} ops in {r} round(s), {t_end - t_start:.1f} s; "
              f"op wall time p50 {self.pct(walls_ms, 50):.1f} ms, p90 {self.pct(walls_ms, 90):.1f} ms; "
              f"checks after the ops {time.perf_counter() - t_end:.1f} s", file=sys.stderr)
        self.tally(ops)
        metrics = {"setup_s": (self.setup_s, "s")}
        metrics.update(self.metrics(state, ops))
        return metrics

    def tally(self, ops):
        self.attempted = len(ops)
        self.failed = sum(1 for op in ops if op["error"])
        for op in ops:
            if op["error"]:
                print(f"failed op {op['id']} ({op['name']}): {op['error']}",
                      file=sys.stderr)

    def discard(self, state):
        pass

    def resident_cpu_s(self, state):
        """CPU seconds of set-up work done by children still running (not
        yet in RUSAGE_CHILDREN)."""
        return 0.0

    def run_timed_op(self, op, state):
        return run_op(self.op_argv(op, state))

    def after_round(self, r, state):
        pass

    def before_op(self, op, state):
        pass

    def finish(self, state, ops):
        pass

    # -- shared metric helpers -------------------------------------------

    @staticmethod
    def pct(values, q):
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    @staticmethod
    def peak_rss(ops):
        """The largest op RSS of a round, median over the rounds: every
        round runs the same ops, and the median drops a lone op whose RSS
        the kernel inflated (huge pages, fault-around)."""
        peaks = {}
        for op in ops:
            peaks[op["round"]] = max(peaks.get(op["round"], 0), op["res"].rss_kb)
        return statistics.median(peaks.values()) / 1024, "MiB"

    def peak_rss_mb(self, state, ops):
        return self.peak_rss(ops)

    def metrics(self, state, ops):
        """The end-to-end metrics, the same on every workload. The CPU
        percentiles are taken over the ops of a round, each op at its
        median over the run's rounds: pooled over all ops, a percentile
        that falls between two ops of different cost is set by the tails
        of both, and moved with the host's load."""
        slots = {}
        for op in ops:
            slots.setdefault(op["slot"], []).append(op["res"].cpu_ms)
        per_op = [statistics.median(v) for v in slots.values()]
        cpus = [op["res"].cpu_ms for op in ops]
        return {
            "op_cpu_ms.p50": (self.pct(per_op, 50), "ms"),
            "op_cpu_ms.p90": (self.pct(per_op, 90), "ms"),
            "procs_per_cpu_s": (sum(op["procs"] for op in ops) / (sum(cpus) / 1e3), "procs/s"),
            "peak_rss_mb": self.peak_rss_mb(state, ops),
            "spmd_bytes": (sum(len(op["res"].out) for op in ops) / len(ops), "bytes/op"),
            "regenerated": (sum(op.get("generated", 0) for op in ops) / len(ops), "procs/op"),
        }

    @staticmethod
    def check_all_generated(op, res):
        """A compile with no warm cache generates every procedure, clones
        included: the -timings line reads N/N generated."""
        m = GENERATED.search(res.err)
        if not m:
            return "no regenerated-procedure count in -timings output"
        op["generated"] = int(m.group(1))
        if m.group(1) != m.group(2):
            return f"generated {m.group(1)} of {m.group(2)} procedure(s) without a warm cache"
        return None

    # -- traced replay ------------------------------------------------------

    trace_flags = []

    def run_traced(self, state):
        spans_path = os.path.join(self.scratch, "spans.json")
        tool = self.children.add(subprocess.Popen(
            [self.bins["fortd_perf"], "trace", spans_path] + self.trace_flags,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=_die_with_parent))
        self.tool = tool
        self.trace_prime(state)
        ops = []
        t_start = time.perf_counter()
        r = 0
        while time.perf_counter() - t_start < self.seconds or r == 0:
            for op in self.round_ops(r):
                self.before_op(op, state)
                op["facts"] = self.replay(op, state)
                op["process"] = self.trace_process_op(op, state)
                op["error"] = self.check_traced(op)
                ops.append(op)
            r += 1
        tool.stdin.close()
        if tool.wait(timeout=60) != 0:
            raise BenchError("fortd_perf trace failed")
        self.children.procs.remove(tool)
        self.finish_traced(state, ops)
        self.tally(ops)
        with open(spans_path) as f:
            trace = json.load(f)
        return self.layer_metrics(trace, ops)

    def replay(self, op, state, op_id=None):
        fields = self.replay_fields(op, state)
        oid = op["id"] if op_id is None else op_id
        self.tool.stdin.write(f"op {oid} " + " ".join(fields) + "\n")
        self.tool.stdin.flush()
        line = self.tool.stdout.readline()
        if not line:
            raise BenchError("fortd_perf trace exited early")
        return json.loads(line)

    def trace_prime(self, state):
        pass

    def trace_process_op(self, op, state):
        """The untraced op on the same input, for driver.process_ms."""
        op["res"] = run_op(self.op_argv(op, state))
        return op["res"].wall_ms

    def finish_traced(self, state, ops):
        pass

    # (metric, span) pairs and (metric, unit) counts a traced run reports
    # as per-op means, on every workload; derived_layers() adds the
    # differences.
    LAYER_SPANS = [
        ("frontend.parse_ms", "frontend.parse"), ("ir.bind_ms", "ir.bind"),
        ("ipa.ms", "ipa"), ("ipa.overlap_ms", "ipa.overlap"),
        ("analysis.lint_ms", "analysis.lint"), ("analysis.verify_ms", "analysis.verify"),
        ("codegen.ms", "codegen"), ("codegen.print_ms", "codegen.print"),
        ("driver.compile_ms", "driver.compile"), ("driver.store_open_ms", "driver.store_open"),
        ("driver.store_flush_ms", "driver.store_flush"),
        ("service.roundtrip_ms", "service.roundtrip"), ("runtime.serial_ms", "runtime.serial"),
        ("runtime.threads_ms", "runtime.threads"), ("machine.exec_ms", "machine.exec"),
    ]
    LAYER_COUNTS = [
        ("ipa.summaries_computed", "count"), ("ipa.summaries_cached", "count"),
        ("ipa.rounds", "count"), ("codegen.generated", "count"),
        ("codegen.cache_hits", "count"), ("codegen.print_bytes", "bytes"),
        ("driver.disk_hits", "count"), ("driver.disk_misses", "count"),
        ("service.reply_bytes", "bytes"), ("runtime.messages", "count"),
    ]
    # The in-process calls an op process wraps (driver.process_ms).
    process_wraps = ("driver.compile",)
    COMPILE_LAYERS = ("frontend.parse", "ir.bind", "ipa", "ipa.overlap", "analysis.lint",
                      "codegen", "analysis.verify", "driver.store_flush")

    def layer_metrics(self, trace, ops):
        spans, counts = {}, {}
        for s in trace["spans"]:
            if s["op"] >= 0:
                d = spans.setdefault(s["op"], {})
                d[s["name"]] = d.get(s["name"], 0.0) + (s["end_us"] - s["start_us"]) / 1e3
        for c in trace["counts"]:
            if c["op"] >= 0:
                d = counts.setdefault(c["op"], {})
                d[c["name"]] = d.get(c["name"], 0.0) + c["value"]

        def mean(f):
            """Per-op mean of f(spans of the op, its counts, the op)."""
            return sum(f(spans.get(op["id"], {}), counts.get(op["id"], {}), op)
                       for op in ops) / len(ops)

        out = {m: (0.0, unit) for m, unit in PER_LAYER}
        out.update({m: (mean(lambda s, c, op, span=span: s.get(span, 0.0)), "ms")
                    for m, span in self.LAYER_SPANS})
        out.update({m: (mean(lambda s, c, op, m=m: c.get(m, 0.0)), unit)
                    for m, unit in self.LAYER_COUNTS})
        out.update(self.derived_layers(mean))
        return out

    def derived_layers(self, mean):
        # Self time: compile_source minus the layer spans of the same input.
        return {
            "driver.self_ms": (mean(lambda s, c, op: s["driver.compile"] - sum(
                s.get(k, 0.0) for k in self.COMPILE_LAYERS)), "ms"),
            "driver.process_ms": (mean(lambda s, c, op: op["process"] - sum(
                s[k] for k in self.process_wraps)), "ms"),
        }


class ColdBuild(Workload):
    """Cold compiles with -analyze, each into an empty cache directory."""

    name = "cold_build"
    trace_flags = ["-analyze"]

    def plan(self):
        rng = self.seeded()
        plan, expect = [], {}
        # Distinct array extents: no two programs share a procedure.
        ext = iter(rng.sample(range(64, 640), 200))
        clone_ext = iter(rng.sample(range(32, 96), 20))
        for name in ("jacobi", "adi", "stencil2d", "redistribution", "dgefa"):
            plan.append((f"ex_{name}", "example", name))
        # One vectorized message per shift direction of each stencil loop,
        # V-1 clones of a procedure reached under V decompositions.
        expect.update({"ex_jacobi": (2, 0), "ex_adi": (0, 0), "ex_stencil2d": (1, 1),
                       "ex_redistribution": (0, 0), "ex_dgefa": (1, 0)})
        for k, n in enumerate(sorted(rng.sample(range(10, 100), 6))):
            plan.append((f"dgefa_{k}", "dgefa", n))
            expect[f"dgefa_{k}"] = (1, 0)     # the pivot-column broadcast
        for k, w in enumerate(ladder(4, 2048, 40, rng)):
            plan.append((f"fan_{k}", "fan_out", w, next(ext)))
            expect[f"fan_{k}"] = (w, 0)
        for k, w in enumerate(ladder(8, 1024, 20, rng)):
            d = rng.randint(2, 24)
            plan.append((f"chainfan_{k}", "chain_fanout", d, w, next(ext)))
            expect[f"chainfan_{k}"] = (d + w, 0)
        for k, w in enumerate(ladder(2, 192, 20, rng)):
            v = rng.randint(2, 6)
            plan.append((f"clone_{k}", "cloning_fanout", w, v, next(clone_ext)))
            expect[f"clone_{k}"] = (w, v - 1)
        for k, d in enumerate(ladder(4, 256, 20, rng)):
            plan.append((f"chain_{k}", "call_chain", d, next(ext)))
            expect[f"chain_{k}"] = (d, 0)
        rng.shuffle(plan)
        self.programs = plan
        self.expect = expect

    def setup(self, d):
        self.plan()
        src = os.path.join(d, "src")
        os.makedirs(src)
        sources = emit(self.bins, self.programs, src)
        self.procs = {name: count_procs(text) for name, text in sources.items()}
        self.src = src
        return {"dir": d, "n": 0}

    def round_ops(self, r):
        return [{"id": r * len(self.programs) + i, "round": r, "name": p[0],
                 "path": os.path.join(self.src, p[0] + ".fd"),
                 "procs": self.procs[p[0]]} for i, p in enumerate(self.programs)]

    def fresh_cache_dir(self, state):
        state["n"] += 1
        path = os.path.join(state["dir"], f"cache{state['n']}")
        os.mkdir(path)
        return path

    def op_argv(self, op, state):
        # -Werror: fortdc exits 3 on any lint warning or verifier
        # diagnostic (deadlock, size mismatch, peer range, guarded
        # collective or call), most of which the summary line below does
        # not count. -timings prints the regenerated-procedure count.
        return [self.bins["fortdc"], "-p", str(P), "-analyze", "-Werror", "-timings",
                "-cache-dir", self.fresh_cache_dir(state), op["path"]]

    def check(self, op, res):
        if res.rc != 0:
            return f"exit {res.rc}: {res.err.strip()[-300:]}"
        m = re.search(r"analyze: (\d+) warning\(s\).*?(\d+) unmatched", res.err)
        if not m:
            return "no -analyze summary"
        if int(m.group(1)) or int(m.group(2)):
            return f"{m.group(1)} warning(s), {m.group(2)} unmatched message(s)"
        m = re.search(r"(\d+) clone\(s\),.* (\d+) vectorized message\(s\)", res.err)
        if not m:
            return "no compile summary"
        got = (int(m.group(2)), int(m.group(1)))
        want = self.expect[op["name"]]
        if got != want:
            return f"vectorized messages, clones = {got}, expected {want}"
        return self.check_all_generated(op, res)

    # -- traced --
    def replay_fields(self, op, state):
        return [op["path"], "inter", self.fresh_cache_dir(state),
                self.fresh_cache_dir(state), "-"]

    def check_traced(self, op):
        f = op["facts"]
        if "error" in f:
            return f["error"]
        if f["warnings"] or f["unmatched"] or f["verify_diags"]:
            return "lint warnings or unmatched messages in the traced replay"
        got, want = (f["vectorized"], f["clones"]), self.expect[op["name"]]
        if got != want:
            return f"traced vectorized messages, clones = {got}, expected {want}"
        return self.check(op, op["res"])


# -- edits -----------------------------------------------------------------


class EditSequence:
    """Versions of base programs under one-procedure edits.

    Every procedure body holds one `c*a(i+s)` stencil. A base's
    coefficients are rewritten to distinct 5-digit values, and each edit
    draws a value never used before, so every edited version is new
    content and its listing length does not depend on which values were
    drawn. A round applies the base's `template` of steps; shift edits
    come in pairs (a new shift, then the old one back) and the round ends
    by reverting to its first version, so every round starts from the
    same structure and does the same work."""

    STENCIL = re.compile(r"= ([0-9.]+)\*([a-z])\(([a-z])\+(\d+)\)")

    def __init__(self, name, source, template, rng, coeffs, shiftable, editable):
        self.name = name
        self.template = template
        self.rng = rng
        self.coeffs = coeffs
        self.editable = list(editable)
        # The source split around each editable stencil: (procedure or
        # None, text before the coefficient, text between coefficient and
        # shift, text after the shift).
        self.pieces = []
        self.state = {}   # procedure -> (coefficient, shift)
        parts = re.split(r"(?m)^(?=[ \t]+subroutine )", source)
        self.pieces.append((None, parts[0], "", ""))
        for part in parts[1:]:
            pname = re.match(r"\s+subroutine (\w+)\(", part).group(1)
            m = self.STENCIL.search(part)
            if pname in editable:
                self.state[pname] = (next(coeffs), int(m.group(4)))
                self.pieces.append((pname, part[:m.start()] + "= ",
                                    f"*{m.group(2)}({m.group(3)}+", ")" + part[m.end():]))
            else:
                self.pieces.append((None, part, "", ""))
        # Shift edits rotate over the leaves that start at the most common
        # shift, so every round changes the listing by the same bytes and
        # spmd_bytes does not depend on how many rounds a run does.
        shifts = [self.state[t][1] for t in shiftable]
        common = max(sorted(set(shifts)), key=shifts.count, default=None)
        self.shiftable = [t for t in shiftable if self.state[t][1] == common]
        rng.shuffle(self.shiftable)
        self.round_start = None

    def text(self, state):
        out = []
        for pname, before, between, after in self.pieces:
            if pname is None:
                out.append(before)
            else:
                c, s = state[pname]
                out.append(f"{before}{c}{between}{s}{after}")
        return "".join(out)

    def base(self):
        return self.text(self.state)

    def step(self, r, k):
        """(kind, text) of step k of round r; steps must be taken in order."""
        kind = self.template[k]
        if kind == "body":
            t = self.rng.choice(self.editable)
            self.state[t] = (next(self.coeffs), self.state[t][1])
        elif kind == "shift":
            t = self.shiftable[r % len(self.shiftable)]
            self.shift_target = t
            self.state[t] = (next(self.coeffs), self.state[t][1] % 3 + 1)
        elif kind == "shift_back":
            t = self.shift_target
            s = self.state[t][1]
            self.state[t] = (next(self.coeffs), (s - 2) % 3 + 1)
        else:  # revert to this round's first version
            self.state = dict(self.round_start)
        if k == 0:
            self.round_start = dict(self.state)
        return kind, self.text(self.state)


# Coefficients one run may draw. The four bases take about 1,730 and a
# round of edits 20, so a run has room for about 1,400 rounds (34,000
# ops); today's runs do 6 to 11.
MAX_COEFFICIENTS = 30000


def coefficient_stream(rng):
    """Distinct values d.dddd (1.0001 to 9.9999) with a nonzero last digit,
    so each prints as six characters. No two share floor(c * 4096): the
    procedure digest hashes a real constant by that integer, so two such
    values would name one cache entry and a warm compile would emit the
    other value (a FOUND line in CHANGES.md). [1, 10) holds 36,864 such
    buckets; MAX_COEFFICIENTS stops the draw while most are still free."""
    buckets = set()
    while len(buckets) < MAX_COEFFICIENTS:
        code = rng.randrange(10001, 100000)
        text = f"{code // 10000}.{code % 10000:04d}"
        bucket = int(float(text) * 4096.0)
        if code % 10 and bucket not in buckets:
            buckets.add(bucket)
            yield text
    raise BenchError(f"the edit workloads drew all {MAX_COEFFICIENTS} coefficient values: "
                     "run fewer rounds (a shorter --seconds)")


class EditWorkload(Workload):
    """One-procedure edits to large base programs, compiled warm."""

    def seeded(self):
        # edit_restart and edit_served replay the same inputs.
        return random.Random(f"edit:{self.seed}")

    # Steps per round of each base. The op counts (6 + 12 + 3 + 3 of 24)
    # put the p50 in the middle of chain_fanout's ops and the p90 inside
    # fan_out's, away from the gaps between the bases' op times.
    TEMPLATES = {
        "fan_out": ["body", "shift", "body", "shift_back", "body", "revert"],
        "chain_fanout": ["body", "shift", "body", "body", "body", "shift_back",
                         "body", "body", "body", "body", "body", "revert"],
        "cloning_fanout": ["body", "body", "revert"],
        "call_chain": ["body", "body", "revert"],
    }

    def plan(self):
        rng = self.seeded()
        coeffs = coefficient_stream(rng)
        ext = rng.sample(range(128, 384), 4)

        def near(n):
            return int(n * (1 - 0.04 * rng.random()))
        self.base_plan = [
            ("base_fan", "fan_out", near(1024), ext[0]),
            ("base_chainfan", "chain_fanout", 16, near(384), ext[1]),
            ("base_clone", "cloning_fanout", near(160), 4, 32 + ext[2] % 64),
            ("base_chain", "call_chain", near(192), ext[3]),
        ]
        self.coeffs = coeffs

    def make_sequences(self, sources):
        seqs = []
        for name, fam, *_ in self.base_plan:
            text = sources[name]
            names = re.findall(r"(?m)^\s+subroutine (\w+)\(", text)
            # Shift edits go to procedures only the main program calls.
            shiftable = [n for n in names if n.startswith(("leaf", "wide"))]
            editable = shiftable if fam == "cloning_fanout" else names
            seqs.append(EditSequence(name, text, self.TEMPLATES[fam],
                                     random.Random(f"{self.seed}:{name}"),
                                     self.coeffs, shiftable, editable))
        return seqs

    def setup(self, d):
        self.plan()
        src = os.path.join(d, "src")
        os.makedirs(src)
        sources = emit(self.bins, self.base_plan, src)
        seqs = self.make_sequences(sources)
        bases = []
        for s in seqs:
            path = os.path.join(src, s.name + "_v0.fd")
            write(path, s.base())
            bases.append(path)
        state = {"dir": d, "src": src, "seqs": seqs, "bases": bases}
        self.prime(state)
        return state

    def round_ops(self, r):
        # The bases' steps interleaved in proportion to their counts.
        steps = sorted(((k + 0.5) / len(t), i, k) for i, (_, fam, *_) in
                       enumerate(self.base_plan) for t in [self.TEMPLATES[fam]]
                       for k in range(len(t)))
        return [{"id": None, "round": r, "step": k, "seq": i, "name": None}
                for _, i, k in steps]

    def before_op(self, op, state):
        seq = state["seqs"][op["seq"]]
        kind, text = seq.step(op["round"], op["step"])
        state.setdefault("n", 0)
        op["id"] = state["n"]
        state["n"] += 1
        op["name"] = f"{seq.name} r{op['round']} {kind}"
        op["kind"] = kind
        op["path"] = os.path.join(state["src"], f"{seq.name}_r{op['round']}_s{op['step']}.fd")
        op["procs"] = count_procs(text)
        op["text"] = hashlib.sha1(text.encode()).digest()
        write(op["path"], text)

    def parse_generated(self, res):
        raise NotImplementedError

    def check(self, op, res):
        if res.rc != 0:
            return f"exit {res.rc}: {res.err.strip()[-300:]}"
        if "unavailable" in res.err:
            return "served op fell back to a local compile"
        generated = self.parse_generated(res)
        if generated is None:
            return "no regenerated-procedure count in -timings output"
        op["generated"] = generated
        return self.check_generated(op["kind"], generated)

    @staticmethod
    def check_generated(kind, generated):
        # §8: a body-only edit leaves every export unchanged, so only the
        # edited procedure is compiled again; a version compiled before
        # is all cache hits. A shift edit changes exports: at least the
        # edited procedure.
        want = {"body": 1, "revert": 0}.get(kind)
        if want is not None and generated != want:
            return f"{kind} edit regenerated {generated} procedure(s), expected {want}"
        if want is None and generated < 1:
            return f"{kind} edit regenerated nothing"
        return None

    def verify_listings(self, ops, *listings_of):
        """Every listing must equal a cache-less compile of the same source,
        made after the timed ops (once per distinct source: a revert
        repeats an earlier version)."""
        first = {}
        for op in ops:
            first.setdefault(op["text"], op["path"])
        paths = list(first.values())
        refs = dict(zip(paths, run_many([[self.bins["fortdc"], "-p", str(P), p]
                                          for p in paths])))
        for op in ops:
            if op["error"]:
                continue
            rc, out = refs[first[op["text"]]]
            if rc != 0:
                op["error"] = f"cache-less reference compile exited {rc}"
            elif any(listing_of(op) != out for listing_of in listings_of):
                op["error"] = "listing differs from a cache-less compile"

    def finish(self, state, ops):
        self.verify_listings(ops, lambda op: op["res"].out)

    def check_traced(self, op):
        f = op["facts"]
        if "error" in f:
            return f["error"]
        err = self.check_generated(op["kind"], f["generated"])
        if err:
            return "traced replay: " + err
        return self.check(op, op["res"])

    def finish_traced(self, state, ops):
        self.verify_listings(ops, lambda op: op["res"].out,
                             lambda op: _read_bytes(op["path"] + ".spmd"))


def _read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class EditRestart(EditWorkload):
    """A fresh fortdc process per edit on a disk-warm cache directory."""

    name = "edit_restart"
    trace_flags = ["-listings"]

    def cache_dirs(self):
        return ["cache"] + (["cache_layers", "cache_compile"] if self.trace else [])

    def prime(self, state):
        # The cold compiles that fill the warm cache directory (three
        # identical ones when traced: op processes, layers, compile_source).
        for name in self.cache_dirs():
            path = os.path.join(state["dir"], name)
            state[name] = path
            for base in state["bases"]:
                res = run_op([self.bins["fortdc"], "-p", str(P), "-quiet",
                              "-cache-dir", path, base])
                if res.rc != 0:
                    raise BenchError(f"priming compile of {base} exited {res.rc}")

    def op_argv(self, op, state):
        return [self.bins["fortdc"], "-p", str(P), "-timings",
                "-cache-dir", state["cache"], op["path"]]

    def parse_generated(self, res):
        m = GENERATED.search(res.err)
        return int(m.group(1)) if m else None

    def replay_fields(self, op, state):
        return [op["path"], "inter", state["cache_layers"], state["cache_compile"], "-"]


class EditServed(EditWorkload):
    """The same edits sent through one resident fortdd."""

    name = "edit_served"
    trace_flags = ["-resident", "-j", "2", "-listings"]   # fortdd's default -j 2
    process_wraps = ("service.roundtrip",)

    def prime(self, state):
        # Start the daemon and send it the cold compiles of the bases.
        names = ["daemon"] + (["daemon_trace"] if self.trace else [])
        for name in names:
            cache = os.path.join(state["dir"], name + "_cache")
            os.mkdir(cache)
            state[name] = Daemon(self.bins["fortdd"], cache, self.children)
            for base in state["bases"]:
                res = run_op(self.client_argv(state[name], base))
                if res.rc != 0 or "unavailable" in res.err:
                    raise BenchError(f"priming compile of {base} through fortdd failed")

    DAEMONS = ("daemon", "daemon_trace")

    def discard(self, state):
        for name in self.DAEMONS:
            if name in state:
                state[name].stop()

    def resident_cpu_s(self, state):
        # Starting each daemon and its priming compiles.
        return sum(state[name].cpu_s() for name in self.DAEMONS if name in state)

    def run_timed_op(self, op, state):
        # The op's CPU is the client's plus what the daemon spent meanwhile.
        daemon = state["daemon"]
        c0 = daemon.cpu_s()
        res = run_op(self.op_argv(op, state))
        res.cpu_ms += (daemon.cpu_s() - c0) * 1e3
        return res

    def client_argv(self, daemon, path):
        return [self.bins["fortdc"], "-p", str(P), "-timings",
                "-server", daemon.endpoint, path]

    def op_argv(self, op, state):
        return self.client_argv(state["daemon"], op["path"])

    def parse_generated(self, res):
        m = re.search(r"fortdc: server: (\{.*\})", res.err)
        return json.loads(m.group(1))["generated"] if m else None

    def after_round(self, r, state):
        # The daemon does the compiles, and its caches grow with every new
        # version it sees: its high-water mark is read after the rounds
        # every run does (MIN_OPS ops), not after a number of rounds that
        # follows the host's speed.
        if r + 1 == -(-MIN_OPS // len(self.round_ops(r))):
            state["daemon_rss_kb"] = state["daemon"].peak_rss_kb()

    def peak_rss_mb(self, state, ops):
        return state["daemon_rss_kb"] / 1024, "MiB"

    # -- traced: the replayer keeps one resident pipeline, like a session;
    # its round trips go to a second daemon primed like the first.
    def trace_prime(self, state):
        for k, base in enumerate(state["bases"]):
            facts = self.replay({"path": base}, state, op_id=-1 - k)
            if "error" in facts or not facts.get("served"):
                raise BenchError(f"traced priming of {base} failed")

    def replay_fields(self, op, state):
        for name in ("layers", "compile"):
            path = os.path.join(state["dir"], f"resident_{name}")
            os.makedirs(path, exist_ok=True)
        return [op["path"], "inter", os.path.join(state["dir"], "resident_layers"),
                os.path.join(state["dir"], "resident_compile"),
                state["daemon_trace"].endpoint]

    def check_traced(self, op):
        f = op["facts"]
        if "error" not in f and not f.get("served"):
            return "traced round trip fell back"
        if "error" not in f and f["served_generated"] != f["generated"]:
            return "daemon and resident replay regenerated different counts"
        return super().check_traced(op)

    def derived_layers(self, mean):
        out = super().derived_layers(mean)
        # The round trip minus the queue, parse and compile times the reply
        # reports.
        out["service.transport_ms"] = (mean(lambda s, c, op: s["service.roundtrip"] - sum(
            c[k] for k in ("service.queue_ms", "service.parse_ms", "service.compile_ms"))),
            "ms")
        return out


class RunCheck(Workload):
    """fortdc -run under the three strategies on small programs."""

    name = "run_check"
    trace_flags = ["-run"]
    process_wraps = ("driver.compile", "runtime.harness")
    STRATEGIES = ("inter", "intra", "runtime")

    def plan(self):
        rng = self.seeded()
        plan = [(f"ex_{n}", "example", n)
                for n in ("jacobi", "adi", "stencil2d", "redistribution", "dgefa")]
        # The seed shrinks each array extent by up to 4% and shuffles the
        # op order; the sizes that set the traffic (dgefa's n, fan_out's
        # width, the shifts and trip counts) stay, so an op costs about the
        # same under every seed.
        def near(n):
            return int(n * (1 - 0.04 * rng.random()))
        plan.append(("dgefa", "dgefa", 24))
        plan.append(("stencil1d", "stencil1d", near(256), 4))
        plan.append(("fig4", "fig4", near(64), 8))
        plan.append(("fig15", "fig15", near(128), 4))
        plan.append(("fan_out", "fan_out", 24, near(128)))
        self.programs = plan
        self.order = [(p, s) for p in plan for s in self.STRATEGIES]
        rng.shuffle(self.order)

    def closed_form(self, prog, strategy):
        """(messages, bytes) of the stencil programs, or None."""
        name, fam, *args = prog
        if name == "ex_jacobi":      # shifts -1, +1 over T=20 sweeps
            return stencil_traffic(strategy, 2, 2, 20)
        if name == "ex_stencil2d":   # shift 5 along x's rows, T=100 calls
            return stencil_traffic(strategy, 1, 5, 100, hoisted=True)
        if fam == "fig4":
            return stencil_traffic(strategy, 1, 5, args[1], hoisted=True)
        if fam == "stencil1d":
            return stencil_traffic(strategy, 1, args[1], 1)
        if fam == "fan_out":         # one message per leaf per neighbour pair
            w = args[0]
            return stencil_traffic(strategy, w, shifts_sum(w), 1)
        return None

    def setup(self, d):
        self.plan()
        src = os.path.join(d, "src")
        os.makedirs(src)
        sources = emit(self.bins, self.programs, src)
        self.procs = {n: count_procs(t) for n, t in sources.items()}
        plan_path = os.path.join(src, "plan.txt")
        # The benchmark's reference computations: the serial reference of
        # every program against plain C++, and the simulator's prediction.
        proc = subprocess.run([self.bins["fortd_perf"], "reference", plan_path, src],
                              stdout=subprocess.PIPE, text=True)
        refs = {}
        for line in proc.stdout.splitlines():
            r = json.loads(line)
            refs[r["name"]] = r
            if not r["serial_ok"]:
                print(f"serial reference of {r['name']} differs from the plain C++ "
                      f"computation: {r['problem']}", file=sys.stderr)
                self.correct = False
        if proc.returncode not in (0, 1) or len(refs) != len(self.programs):
            raise BenchError("fortd_perf reference failed")
        self.refs = refs
        self.src = src
        return {"dir": d}

    def round_ops(self, r):
        n = len(self.order)
        return [{"id": r * n + i, "round": r, "name": f"{p[0]} {s}", "prog": p, "strategy": s,
                 "path": os.path.join(self.src, p[0] + ".fd"), "procs": self.procs[p[0]]}
                for i, (p, s) in enumerate(self.order)]

    def op_argv(self, op, state):
        return [self.bins["fortdc"], "-p", str(P), "-s", op["strategy"], "-timings", "-run",
                op["path"]]

    TRAFFIC = re.compile(r"traffic vs simulator prediction: OK \((\d+) message\(s\), "
                         r"(\d+) byte\(s\), (\d+) remap\(s\), (\d+) remap byte\(s\)\)")

    def check(self, op, res):
        if res.rc != 0:
            return f"exit {res.rc}: {res.err.strip()[-300:]}"
        if "numerics vs serial: OK" not in res.err:
            return "no numerics-vs-serial OK line"
        m = self.TRAFFIC.search(res.err)
        if not m:
            return "no traffic-vs-prediction OK line"
        msgs, nbytes, _, remap_bytes = map(int, m.groups())
        return self.check_traffic(op, msgs, nbytes, remap_bytes) or \
            self.check_all_generated(op, res)

    def check_traffic(self, op, msgs, nbytes, remap_bytes):
        pred = self.refs[op["prog"][0]][op["strategy"]]
        if (msgs, nbytes, remap_bytes) != (pred["messages"], pred["bytes"], pred["remap_bytes"]):
            return "traffic differs from the simulator's prediction"
        want = self.closed_form(op["prog"], op["strategy"])
        if want is not None and (msgs, nbytes) != want:
            return f"messages, bytes = {(msgs, nbytes)}, closed form {want}"
        op.update(msg_bytes=nbytes, remap_bytes=remap_bytes, sim_ms=pred["sim_us"] / 1e3)
        return None

    def replay_fields(self, op, state):
        return [op["path"], op["strategy"], "-", "-", "-"]

    def check_traced(self, op):
        f = op["facts"]
        if "error" in f:
            return f["error"]
        if not f["harness_ok"]:
            return "harness mismatch in the traced replay"
        return self.check_traffic(op, f["messages"], f["msg_bytes"], f["remap_bytes"]) or \
            self.check(op, op["res"])

    def derived_layers(self, mean):
        out = super().derived_layers(mean)
        out.update({
            # run_and_check minus the three executions it timed itself.
            "runtime.check_ms": (mean(lambda s, c, op: s["runtime.harness"]
                                      - c["runtime.harness_exec_ms"]), "ms"),
            "runtime.msgs_per_s": (mean(lambda s, c, op: c["runtime.messages"]) /
                                   (mean(lambda s, c, op: s["runtime.threads"]) / 1e3),
                                   "msgs/s"),
            # The traffic the harness observed and the simulator's predicted
            # run time, checked in every op against the prediction and the
            # closed forms.
            "runtime.msg_bytes": (mean(lambda s, c, op: op.get("msg_bytes", 0)), "bytes"),
            "runtime.remap_bytes": (mean(lambda s, c, op: op.get("remap_bytes", 0)), "bytes"),
            "machine.sim_ms": (mean(lambda s, c, op: op.get("sim_ms", 0.0)), "ms"),
        })
        return out


WORKLOADS = {w.name: w for w in (ColdBuild, EditRestart, EditServed, RunCheck)}


# ---------------------------------------------------------------------------


def private_scratch(workload):
    """A fresh private directory on tmpfs for this run only; nothing of an
    earlier run is read."""
    if not (os.path.isdir(TMPFS) and os.access(TMPFS, os.W_OK | os.X_OK)):
        raise BenchError(f"{TMPFS} is not a writable directory: the benchmark "
                         "keeps its scratch state on tmpfs")
    return tempfile.mkdtemp(prefix=f"fortd-perfbench-{workload}-", dir=TMPFS)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    children = Children()
    scratch = None
    try:
        bins = build()
        scratch = private_scratch(args.workload)
        wl = WORKLOADS[args.workload](bins, args.seed, args.seconds, bool(args.trace),
                                      scratch, children)
        metrics = wl.run()
        manifest = PER_LAYER if args.trace else END_TO_END
        if {k: u for k, (_, u) in metrics.items()} != dict(manifest):
            raise BenchError(f"{args.workload} measured {sorted(metrics)}, not the "
                             f"metrics of BENCHMARK.json")
        result = {
            "correct": wl.correct,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in manifest},
        }
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        children.stop_all()
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
