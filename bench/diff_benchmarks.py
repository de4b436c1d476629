#!/usr/bin/env python3
"""Diff freshly produced google-benchmark JSON against committed baselines.

    bench/diff_benchmarks.py [--baseline-dir DIR] [--new-dir DIR]
                             [--threshold FRACTION]

For every BENCH_<name>.json present in *both* directories, benchmarks are
matched by their "name" field and compared two ways:

  * counters — every field a benchmark adds to google-benchmark's own
    (msgs, bytes, kbytes, sim_ms, remaps, clones, generated, disk_hits,
    ...). Each is a deterministic compiler or simulator quantity, so any
    counter that differs from its baseline, or is missing, fails the diff
    and is named with its benchmark. A counter new on the fresh side is
    reported only.
  * wall clock ("real_time", normalized to nanoseconds). The script fails
    when a benchmark's new wall time exceeds baseline * (1 + threshold) —
    default threshold 0.25, i.e. a >25% regression.

The script exits 1 on either failure.

Individual benchmarks may carry a wider time threshold via
PER_BENCH_THRESHOLD (matched by longest prefix of the benchmark name):
scheduler and daemon microbenches time thread handoffs and loopback
round trips, which jitter far beyond 25% on loaded CI machines without
any code change. --threshold only moves the global default; the
per-bench overrides always win where they are wider.

Benchmarks or whole files present on only one side are reported but never
fail the diff: adding a benchmark (or retiring one) is not a regression.
A fresh BENCH_<name>.json with no committed baseline (a newly added bench
binary) is announced with re-baselining instructions and skipped — the
diff still exits 0.

Typical CI sequence:

    cmake -B build -S . && cmake --build build -j
    bench/run_benchmarks.sh build /tmp/bench-out
    bench/diff_benchmarks.py --new-dir /tmp/bench-out

Re-baselining (after an intentional perf change, or when a new benchmark
should start being tracked): regenerate the JSON on a quiet machine and
commit it at the repo root —

    bench/run_benchmarks.sh build .
    git add BENCH_<name>.json

Only files committed at the baseline dir (repo root by default) are
tracked; the diff is a no-op for benchmarks without a baseline.
"""
import argparse
import json
import pathlib
import sys

TIME_UNITS_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# google-benchmark's own fields; every other number is a user counter.
# The *_per_second rates are timings, not counters.
GBENCH_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "aggregate_unit",
    "label", "error_occurred", "error_message", "bytes_per_second",
    "items_per_second", "big_o", "rms", "complexity_n",
}

# Benchmark-name prefix -> allowed fractional slowdown. Used when wider
# than the global --threshold; longest matching prefix wins. These are
# the benches whose timed region is dominated by thread scheduling or
# loopback sockets rather than compiler code.
PER_BENCH_THRESHOLD = {
    "BM_ParallelCodegen": 0.50,          # thread handoff dominated
    "BM_ParallelIpa": 0.50,
    "BM_CodeGeneration": 0.50,           # ms-scale; ±30% run-to-run jitter
    "BM_FullCompile": 0.50,
    "BM_CachedRecompile": 0.50,
    "BM_ParseAndBind": 0.50,             # µs-scale; timer-granularity bound
    "BM_VectorizationAblation": 0.60,    # Iterations(1): single-shot timing
    "BM_WarmDaemonCompile": 0.60,        # loopback COMPILE round trip
    "BM_ColdProcessRecompile": 0.50,
    "BM_LocalWarmCompile": 0.50,
}


def threshold_for(name, default):
    """Per-benchmark threshold: the widest of the global default and the
    longest PER_BENCH_THRESHOLD prefix matching `name`."""
    best_len = -1
    best = default
    for prefix, frac in PER_BENCH_THRESHOLD.items():
        if name.startswith(prefix) and len(prefix) > best_len:
            best_len = len(prefix)
            best = max(frac, default)
    return best


def load_results(path):
    """name -> (real_time in ns or None, {counter: value}) for every
    benchmark in a JSON file, or None when the file is unreadable (e.g. a
    truncated run)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"-- {path}: unreadable ({e}); skipped", file=sys.stderr)
        return None
    out = {}
    for bm in data.get("benchmarks", []):
        if bm.get("run_type") == "aggregate" and bm.get("aggregate_name") != "mean":
            continue
        real = None
        if "real_time" in bm:
            real = bm["real_time"] * TIME_UNITS_NS.get(bm.get("time_unit", "ns"), 1.0)
        counters = {k: v for k, v in bm.items()
                    if k not in GBENCH_FIELDS and isinstance(v, (int, float))
                    and not isinstance(v, bool)}
        out[bm["name"]] = (real, counters)
    return out


def counter_diffs(name, base, new):
    """Lines naming every baseline counter of `name` that changed or is
    missing on the fresh side."""
    out = []
    for key in sorted(base):
        if key not in new:
            out.append(f"{name}: counter '{key}' missing (baseline {base[key]:g})")
        elif new[key] != base[key]:
            out.append(f"{name}: counter '{key}' {base[key]:g} -> {new[key]:g}")
    return out


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f}{unit}"
    return f"{ns:.0f}ns"


def main():
    ap = argparse.ArgumentParser(
        description="fail on changed counters and wall-time regressions")
    ap.add_argument("--baseline-dir", default=".",
                    help="directory holding committed BENCH_*.json "
                         "(default: repo root)")
    ap.add_argument("--new-dir", default=".",
                    help="directory holding freshly produced BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional slowdown before failing "
                         "(default 0.25 = 25%%)")
    args = ap.parse_args()

    baseline_dir = pathlib.Path(args.baseline_dir)
    new_dir = pathlib.Path(args.new_dir)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"diff_benchmarks: no BENCH_*.json under {baseline_dir}; "
              "nothing to diff")
        return 0

    # Fresh results for bench binaries that have no committed baseline yet
    # (e.g. a benchmark added in this very change): warn and skip — never
    # a failure, but loud enough that someone commits a baseline.
    baseline_names = {p.name for p in baselines}
    if new_dir.resolve() != baseline_dir.resolve():
        for new_path in sorted(new_dir.glob("BENCH_*.json")):
            if new_path.name not in baseline_names:
                print(f"-- {new_path.name}: no committed baseline under "
                      f"{baseline_dir} (skipped); to start tracking it: "
                      f"cp {new_path} {baseline_dir}/ && git add "
                      f"{new_path.name}", file=sys.stderr)

    regressions = []
    counter_failures = []
    compared = 0
    for base_path in baselines:
        new_path = new_dir / base_path.name
        if not new_path.exists():
            print(f"-- {base_path.name}: no fresh run (skipped)")
            continue
        base = load_results(base_path)
        new = load_results(new_path)
        if base is None or new is None:
            continue
        for name in sorted(base):
            if name not in new:
                print(f"-- {base_path.name}: '{name}' retired (skipped)")
                continue
            (base_ns, base_counters), (new_ns, new_counters) = base[name], new[name]
            for line in counter_diffs(name, base_counters, new_counters):
                print(f"{'COUNTER':>10}  {base_path.name}: {line}")
                counter_failures.append(line)
            for key in sorted(set(new_counters) - set(base_counters)):
                print(f"       new  {name}: counter '{key}' (no baseline)")
            if base_ns is None or new_ns is None:
                continue
            compared += 1
            ratio = new_ns / base_ns if base_ns > 0 else 1.0
            limit = threshold_for(name, args.threshold)
            marker = "REGRESSION" if ratio > 1 + limit else "ok"
            note = f" [limit {limit * 100:.0f}%]" if limit != args.threshold \
                else ""
            print(f"{marker:>10}  {name}: {fmt_ns(base_ns)} -> "
                  f"{fmt_ns(new_ns)}  ({(ratio - 1) * 100:+.1f}%){note}")
            if ratio > 1 + limit:
                regressions.append((name, ratio))
        for name in sorted(set(new) - set(base)):
            print(f"       new  {name} (no baseline)")

    if counter_failures:
        print(f"\ndiff_benchmarks: {len(counter_failures)} counter(s) differ "
              "from their baselines")
    if regressions:
        print(f"\ndiff_benchmarks: {len(regressions)} regression(s) beyond "
              f"{args.threshold * 100:.0f}% (see docstring for re-baselining)")
    if counter_failures or regressions:
        return 1
    print(f"\ndiff_benchmarks: {compared} benchmark(s) within "
          f"{args.threshold * 100:.0f}%, every counter equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
