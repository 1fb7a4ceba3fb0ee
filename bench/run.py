"""Benchmark of dehnsurg: one process, one thread, one closed-loop client.

Each op is issued when the previous one returns.  The workloads, their
inputs and why each was chosen are described in ``workloads.py``.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, one after another

A run measures for at least S seconds and stops at the end of a cycle of
its workload's input mix, with at least 100 ops so that the 90th
percentile has ten samples above it, and at least three cycles.  Outputs
are checked after the timed loop.  With ``--trace 0`` the run reports the
end-to-end metrics, set-up time coming from fresh interpreters.  Times are
scaled to a reference interpreter speed measured by a calibration kernel
run between ops (see ``calibrate.py``), which cancels most of a shared
host's speed swings, and each op counts with the median time of the ops
on its input in the run; the values without scaling are printed on the
lines starting with ``raw``.  With ``--trace 1`` it runs the
workload for S/2 seconds untraced, replays the same ops with spans around
each layer, checks that both passes gave identical outputs, writes the
spans to ``.bench_out/spans-<workload>.tsv`` and reports the per-layer
metrics and the tracing overhead.  Every line before the last is for
people; the last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calibrate
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_OPS = 100
MIN_CYCLES = 3
WARMUP_OPS = 2
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
SHOWN_FAILURES = 5


def run_metadata() -> dict:
    """Facts about the run that are not metrics: perf changes may add lines."""
    try:
        import tomllib

        deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
        dep_count = len(deps)
    except (ImportError, OSError, KeyError, ValueError):
        dep_count = None
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "dehnsurg").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "runtime_dependencies": dep_count,
    }


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median set-up time over several fresh interpreters, raw and scaled
    by the calibration kernel timed in the same interpreter."""
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        setup_s, kernel_ns = map(float, done.stdout.split())
        times.append(setup_s)
        scaled.append(setup_s * calibrate.REFERENCE_NS / kernel_ns)
    return statistics.median(times), statistics.median(scaled)


def timed(plan, op):
    plan.reset()
    start = perf_counter_ns()
    try:
        raw = op.run()
    except Exception as e:  # a raising op is a failed op; keep measuring
        ns = perf_counter_ns() - start
        return workloads.Result(op, ns, None, "".join(traceback.format_exception_only(e)).strip(), 0)
    ns = perf_counter_ns() - start
    return workloads.Result(op, ns, plan.output(op, raw), None, plan.rows(op, raw))


def run_ops(plan, seconds: float, min_ops: int, min_cycles: int):
    """Whole cycles until ``seconds`` have passed, ``min_ops`` ops ran and
    the cycle ran ``min_cycles`` times."""
    results = []
    cal = calibrate.Calibration(plan.kernel)
    start = perf_counter()
    cycles = 0
    while True:
        for op in plan.cycle:
            results.append(timed(plan, op))
            cal.after_op()
        cycles += 1
        if perf_counter() - start >= seconds and len(results) >= min_ops and cycles >= min_cycles:
            return results, cal.factors()


def replay(plan, ops):
    results = []
    cal = calibrate.Calibration(plan.kernel)
    for op in ops:
        results.append(timed(plan, op))
        cal.after_op()
    return results, cal.factors()


def check_results(plan, results, seed: int) -> list:
    """(index, message) for each failed op: raised, wrong by the plan's
    independent check, different from the recorded reference, or different
    from an earlier op on the same input."""
    failures = []
    seen = {}
    recorded = None
    if plan.reference is not None:
        recorded = plan.reference["seeds"].get(str(seed))
    for i, r in enumerate(results):
        if r.error is not None:
            failures.append((i, f"op {i} ({r.op.key}) raised {r.error}"))
            continue
        if r.op.key in seen:
            first, msg = seen[r.op.key]
            if msg is None and r.out != first:
                msg = f"output {r.out} differs from an earlier op on the same input"
        else:
            msg = plan.check(r.op, r.out)
            if msg is None and recorded is not None:
                want = recorded.get(r.op.key)
                if want is None:
                    msg = "no recorded reference for this input"
                elif list(r.out) != want:
                    msg = f"output {r.out} != recorded {want}"
            seen[r.op.key] = (r.out, msg)
        if msg is not None:
            failures.append((i, f"op {i} ({r.op.key}): {msg}"))
    return failures


def end_to_end(results, setup_s: float, scales) -> dict:
    """Metrics from each op's typical time: the median over the run of the
    scaled times of the ops on its input.  Every input recurs once a cycle,
    and the median drops the times that a phase of the host that the
    calibration kernel does not track slowed or sped up."""
    times = defaultdict(list)
    for r, f in zip(results, scales):
        times[r.op.key].append(r.ns * f / 1e6)
    typical = {key: statistics.median(v) for key, v in times.items()}
    latencies = [typical[r.op.key] for r in results]
    busy_s = sum(latencies) / 1e3
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(results) / busy_s, "ops/s"),
        "rows_per_s": (sum(r.rows for r in results) / busy_s, "rows/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import dehnsurg

    if Path(dehnsurg.__file__).resolve().parent != SRC / "dehnsurg":
        print(f"error: imported dehnsurg from {dehnsurg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(run_metadata()))
    if args.trace == 0:
        raw_setup_s, setup_s = setup_seconds(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    plan = workloads.build(args.workload, args.seed, OUT_DIR)
    try:
        for op in plan.cycle[:WARMUP_OPS]:
            timed(plan, op)
        if args.trace == 0:
            results, scales = run_ops(plan, args.seconds, MIN_OPS, MIN_CYCLES)
            metrics = end_to_end(results, setup_s, scales)
            for name, (value, unit) in end_to_end(results, raw_setup_s, [1.0] * len(results)).items():
                print(f"raw {name} {value} {unit}")
            print(f"calibration mean factor {statistics.fmean(scales)}")
            all_results = results
            mismatched = []
        else:
            results, scales = run_ops(plan, args.seconds / 2, 1, 1)
            spans = tracer.Tracer()
            spans.install()
            try:
                traced, traced_scales = replay(plan, [r.op for r in results])
            finally:
                spans.uninstall()
            metrics = spans.metrics()
            untraced_s = sum(r.ns for r in results) / 1e9
            traced_s = sum(r.ns for r in traced) / 1e9
            overhead = sum(r.ns * f for r, f in zip(traced, traced_scales)) / sum(
                r.ns * f for r, f in zip(results, scales)
            ) - 1
            metrics["trace.overhead"] = (overhead, "fraction")
            print(f"wall untraced {untraced_s} s traced {traced_s} s (raw)")
            self_s = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
            for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:6]:
                print(f"self-share {name} {value / traced_s:.3f}")
            count = spans.write_spans(OUT_DIR / f"spans-{args.workload}.tsv")
            print(f"spans {count} written to .bench_out/spans-{args.workload}.tsv")
            mismatched = [
                (len(results) + i, f"op {i} ({u.op.key}): traced output {t.out} != untraced {u.out}")
                for i, (u, t) in enumerate(zip(results, traced))
                if (u.out, u.error) != (t.out, t.error)
            ]
            all_results = results + traced
        failures = check_results(plan, all_results, args.seed) + mismatched
    finally:
        plan.close()

    attempted = len(all_results)
    failed = len({i for i, _ in failures})
    mix = Counter(r.op.label for r in results)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} ops {len(results)}")
    print("mix " + " ".join(f"{k}={v}" for k, v in sorted(mix.items())))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"metric error_rate {failed / attempted} fraction")
    for _, msg in failures[:SHOWN_FAILURES]:
        print(f"failure {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.PLANS:
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            # Set-up probes, the timed loop and the checks, with room for
            # a last cycle that overruns.
            timeout=4 * args.seconds + 120,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.PLANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "dehnsurg" / "__init__.py").is_file():
        print(f"error: no dehnsurg package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
