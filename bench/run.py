"""Closed-loop benchmark of the seqcontext package.

    python3 bench/run.py --workload simulate --seed 1 --seconds 50 --trace 0

One client in one process sends each operation after the previous one has
returned (a closed loop) and keeps going for --seconds, finishing the round it
is in and running at least the workload's minimum number of rounds. Workloads:
simulate, postprocess, postprocess_n4, cli; ``all`` runs each in its own
process. The seed is required and is the only source of inputs.

--trace 0 prints the end-to-end metrics: set-up time (median of several
set-ups), operations per second, median and tail latency, failure ratio and
peak resident memory. --trace 1 runs the same untraced loop, then a traced pass
over the first operations of the workload, and prints per-layer busy time,
self time, call and failure counts plus the tracing overhead. Output checks
run after the loop on every operation. Human-readable lines come first; the
last line is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import os

# One BLAS thread in the workload process; this must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("simulate", "postprocess", "postprocess_n4", "cli")
SETUP_REPEATS = 9  # set-ups per run: this process plus eight fresh processes
END_TO_END = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb")  # the JSON metrics of --trace 0


class DeadlineExceeded(BaseException):
    """Raised by the benchmark's own timer when an operation overruns its deadline.

    A BaseException, so no ``except Exception`` in the package can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Record:
    index: int
    latency_s: float
    result: object
    error: str | None


def timed_call(call, arg, deadline_s: float | None = None) -> tuple[float, object, str | None]:
    """Run one operation; return (latency in s, output, failure message or None)."""
    result = error = None
    start = perf_counter()
    try:
        if deadline_s:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            result = call(arg)
        finally:
            if deadline_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        error = f"missed the {deadline_s:g} s deadline"
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if error is None and deadline_s and latency > deadline_s:
        error = f"missed the {deadline_s:g} s deadline"
    if error is None and getattr(result, "status", "optimal") != "optimal":
        error = f"status {result.status}"
    return latency, result, error


def run_loop(workload, seconds: float) -> tuple[list[Record], float]:
    """Closed loop over the workload's inputs: whole rounds, at least ``min_rounds`` of
    them and ``trace_ops`` operations, until ``seconds`` have passed. Returns the
    records and the elapsed time."""
    if workload.deadline_s:
        signal.signal(signal.SIGALRM, _on_alarm)
    least = max(workload.trace_ops, workload.min_rounds * workload.round_size)
    records = []
    start = perf_counter()
    i = 0
    while i < least or i % workload.round_size or perf_counter() - start < seconds:
        arg = workload.inputs[i % len(workload.inputs)]
        records.append(Record(i, *timed_call(workload.call, arg, workload.deadline_s)))
        i += 1
    return records, perf_counter() - start


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def blas_threads() -> str:
    """Thread count the bundled OpenBLAS reports, read through ctypes."""
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment(seed: int) -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"seed={seed} python={platform.python_version()} numpy={numpy.__version__} "
        f"blas_threads={blas_threads()} cpu={cpu!r} nproc={os.cpu_count()}"
    )


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def apply_checks(workload, records: list[Record]) -> int:
    """Check every operation that returned; return how many outputs were wrong."""
    wrong = 0
    for rec in records:
        if rec.error is None:
            rec.error = workload.check(workload.inputs[rec.index % len(workload.inputs)], rec.result)
            wrong += rec.error is not None
    return wrong


def end_to_end(records: list[Record], elapsed: float, setups: list[float], peak_rss_mb: float) -> list[tuple]:
    """Rows of (name, value, unit, how it was sampled), from the operations' own wall times."""
    ms = [1000.0 * r.latency_s for r in records]
    n = len(records)
    done = n - sum(r.error is not None for r in records)
    value, pct = tail(ms)
    return [
        ("setup_s", statistics.median(setups), "s", f"median of n={len(setups)} set-ups"),
        ("ops_per_s", done / elapsed, "1/s", f"n={done} completed over {elapsed:.2f} s"),
        ("op_ms_p50", statistics.median(ms), "ms", f"n={n}"),
        ("op_ms_tail", value, "ms", f"p{pct:.2f}, n={n}, {10 if n > 10 else 0} beyond"),
        ("fail_ratio", (n - done) / n, "ratio", f"{n - done}/{n}"),
        ("peak_rss_mb", peak_rss_mb, "MB", "n=1, getrusage of this process"),
    ]


def run_all(args) -> int:
    """Run every workload in its own process; relay reports and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; the only source of inputs")
    parser.add_argument("--seconds", type=float, default=50.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced pass")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "seqcontext" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'seqcontext'} is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    start = perf_counter()
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed)
    setups = [perf_counter() - start]
    if args.setup_only:
        print(setups[0])
        return 0
    if tracer:
        tracer.uninstall()
    else:
        setups += [child_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]

    records, elapsed = run_loop(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if tracer:
        tracer.install()
        for i in range(workload.trace_ops):
            tracer.op_id = i
            traced.append(Record(i, *timed_call(workload.call, workload.inputs[i], workload.deadline_s)))
        tracer.uninstall()

    everything = records + traced
    wrong = apply_checks(workload, everything)
    failed = sum(r.error is not None for r in everything)

    print(f"# workload={args.workload} trace={args.trace} seconds={args.seconds:g} closed loop, 1 client, 1 process")
    print(f"# {environment(args.seed)}")
    if workload.deadline_s:
        print(f"# per-operation deadline {workload.deadline_s:g} s")
    for rec in everything:
        if rec.error is not None:
            print(f"# op {rec.index} failed: {rec.error}")
    if tracer:
        untraced_s = sum(r.latency_s for r in records[: len(traced)])
        overhead = sum(r.latency_s for r in traced) / untraced_s - 1.0
        print(f"# span table over set-up and {len(traced)} traced operations: name calls s self_s failed")
        for name, row in sorted(spans.summary(tracer).items()):
            if row["calls"]:
                print(f"#   {name} {row['calls']} {row['s']:.6f} {row['self_s']:.6f} {row['failed']}")
        metrics = dict(spans.layer_metrics(tracer))
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        rows = [(k, v, unit, f"traced pass of {len(traced)} ops") for k, (v, unit) in metrics.items()]
    else:
        rows = end_to_end(records, elapsed, setups, peak_rss_mb)
        metrics = {name: (value, unit) for name, value, unit, _ in rows if name in END_TO_END}
    for name, value, unit, how in rows:
        print(f"{name:<44} {value:>14.6g} {unit:<6} ({how})")
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(everything),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
