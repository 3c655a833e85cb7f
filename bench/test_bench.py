"""Tests of the benchmark itself: metric names, deadline accounting, tracing and self time.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import spans

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH.parent / "src"))


def _last_json(workload: str, trace: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(workload, trace, section):
    result = _last_json(workload, trace)
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11


def test_benchmark_json_names_existing_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def _stand_in(call, deadline_s):
    return SimpleNamespace(
        inputs=[0],
        call=call,
        check=lambda arg, out: None,
        round_size=1,
        trace_ops=1,
        deadline_s=deadline_s,
        min_rounds=1,
    )


def test_slow_stand_in_operation_missing_its_deadline_is_a_failure():
    def slow(arg):
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass
        return arg

    workload = _stand_in(slow, deadline_s=0.05)
    records, elapsed = run.run_loop(workload, seconds=0.0)
    assert len(records) == 1 and elapsed < 1.0
    assert "deadline" in records[0].error
    assert run.apply_checks(workload, records) == 0  # a miss is a failure, not a wrong output
    rows = {name: value for name, value, _, _ in run.end_to_end(records, elapsed, [0.1], 40.0)}
    assert rows["fail_ratio"] == 1.0 and rows["ops_per_s"] == 0.0


def test_fast_operation_within_its_deadline_passes():
    records, _ = run.run_loop(_stand_in(lambda arg: arg, deadline_s=0.5), seconds=0.0)
    assert records[0].error is None


def test_tail_is_the_sample_with_ten_beyond_it():
    assert run.tail([float(v) for v in range(1, 41)]) == (30.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_time_subtracts_direct_children_on_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3]; b holds b1 [5, 6] and b2 [7, 9].
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 9.0]
    parent = [-1, 0, 1, 0, 3, 3]
    assert spans.self_times(start, end, parent).tolist() == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])


def test_tracer_counts_package_calls_and_restores_the_package():
    import seqcontext.sequence as sequence

    original = sequence.run_sequence
    tracer = spans.Tracer()
    tracer.install()
    try:
        tables = sequence.run_sequence(3, 1.0, [0.5, 0.9])
    finally:
        tracer.uninstall()
    assert sequence.run_sequence is original
    table = spans.summary(tracer)
    assert table["sequence.run_sequence"]["calls"] == 1
    assert table["sequence.marginal_probability"]["calls"] == len(tables) * 8 * 3
    assert table["sequence.evolve_average"]["calls"] == 8
    metrics = spans.layer_metrics(tracer)
    assert metrics["sequence.state_bytes"] == (8 * 2**2 * 16, "bytes")
    total = table["sequence.run_sequence"]["s"]
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(total)
