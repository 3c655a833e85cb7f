"""The benchmark's workloads: seeded inputs, the operation each one times, and its output check.

Every workload is a closed loop with one client. ``build`` generates all
inputs from the seed and warms the package's lazy caches; the package only
ever sees those generated inputs. An input list is made of rounds
(``round_size`` inputs each); the loop stops only at a round boundary, so
every run covers the same mix of operation sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import seqcontext
from seqcontext import cli, equivalence_lp, operators, sampling, sequence

import oracles

ROUNDS = 64  # rounds generated per run; no run gets through them at the benchmark's run length
OUT_DIR = ".bench_out"  # fixed, relative output paths keep the CLI reports byte-identical
CLI_REPORTS = Path(__file__).with_name("cli_reports.json")
N4_DEADLINE_S = 2.0
WITNESS_TOL = 1e-9
OBJECTIVE_TOL = 1e-7
PARITY_TOL = 1e-8
STOCHASTIC_TOL = 1e-9


@dataclass
class Workload:
    inputs: list
    call: Callable  # input -> output; looks the package function up at call time, so tracing sees it
    check: Callable  # (input, output) -> failure message or None
    round_size: int
    trace_ops: int  # operations the traced pass runs, from the start of the input list
    deadline_s: float | None = None
    min_rounds: int = 1  # rounds every run completes, however long --seconds is


# Times a simulate round runs each cell of a given n. Cells with n <= 6 take
# under 0.11 s and n = 7 under 0.25 s, against up to 1.3 s for n = 9, so a round
# repeats them: the median then falls among several cells of n = 4 to 7 with
# 14 to 28 samples each in a run, not between two cells of 6 samples each.
SIMULATE_REPEATS = {3: 4, 4: 4, 5: 4, 6: 4, 7: 2, 8: 1, 9: 1}
# The costliest cell runs once more a round. With at least six rounds it then
# has the eleven samples that keep the tail (ten samples beyond it) inside it,
# however many rounds a run fits.
TAIL_CELL = (9, 4)


def _simulate(rng: np.random.Generator) -> Workload:
    # Every round runs each (n, observer count) cell SIMULATE_REPEATS[n] times,
    # TAIL_CELL once more, in a seeded order, with seeded q and sharpness
    # values: cost depends on the cell, not on q or eta.
    cells = [
        (n, m) for n in range(3, 10) for m in range(1, 5) for _ in range(SIMULATE_REPEATS[n] + ((n, m) == TAIL_CELL))
    ]
    inputs = []
    for _ in range(ROUNDS):
        for i in rng.permutation(len(cells)):
            n, m = cells[i]
            etas = tuple(float(e) for e in rng.uniform(0.2, 1.0, size=m))
            inputs.append((n, float(rng.uniform(0.5, 1.0)), etas))
    for n in range(3, 10):
        operators.build_observables(n)

    def check(arg, tables):
        n, q, etas = arg
        expected = sequence.visibility_chain(n, q, etas).witnesses
        got = [float(np.mean(t.win)) for t in tables]
        if len(got) != len(expected):
            return f"{len(got)} tables for {len(expected)} observers"
        worst = max(abs(a - b) for a, b in zip(got, expected))
        return None if worst <= WITNESS_TOL else f"witness off the closed form by {worst:.3e}"

    return Workload(inputs, lambda arg: sequence.run_sequence(*arg), check, len(cells), len(cells), min_rounds=6)


def _lp_check():
    optimum: dict[int, float] = {}

    def check(arg, result):
        index, table = arg
        if index not in optimum:
            optimum[index] = oracles.highs_max_witness(table.win)
        omega = result.omega.omega
        problems = {
            "stochastic": (oracles.stochastic_violation(omega), STOCHASTIC_TOL),
            "parity residual": (oracles.parity_violation(omega, table.win), PARITY_TOL),
            "remixed witness vs HiGHS": (abs(oracles.remixed_witness(omega, table.win) - optimum[index]), OBJECTIVE_TOL),
            "reported a_post vs HiGHS": (abs(result.a_post - optimum[index]), OBJECTIVE_TOL),
        }
        bad = [f"{what} {value:.3e} > {tol:g}" for what, (value, tol) in problems.items() if not value <= tol]
        return "; ".join(bad) or None

    return check


def _lp_workload(rng: np.random.Generator, tables: list, trace_ops: int, deadline_s=None) -> Workload:
    # Each round runs every table once, in a seeded order.
    inputs = [(int(i), tables[i]) for _ in range(ROUNDS) for i in rng.permutation(len(tables))]
    return Workload(
        inputs,
        lambda arg: equivalence_lp.enforce_equivalences(arg[1]),
        _lp_check(),
        len(tables),
        trace_ops,
        deadline_s,
    )


def _postprocess(rng: np.random.Generator) -> Workload:
    fixtures = Path(seqcontext.__file__).parent / "fixtures"
    tables = [sequence.read_marginal_csv(fixtures / f"{name}.csv") for name in ("observer1", "observer2", "observer3")]
    chains = []
    for _ in range(32):
        etas = rng.uniform(0.3, 1.0, size=int(rng.integers(1, 5)))
        chains.append(sequence.run_sequence(3, float(rng.uniform(0.5, 1.0)), etas))
    for _ in range(509):
        chain = chains[int(rng.integers(len(chains)))]
        source = chain[int(rng.integers(len(chain)))]
        trials = int(10 ** rng.uniform(3.0, 6.0))
        tables.append(sampling.sample_counts(source, trials, int(rng.integers(2**32))))
    return _lp_workload(rng, tables, trace_ops=64)


def _postprocess_n4(rng: np.random.Generator) -> Workload:
    # The exact n = 4, q = 0.95, eta = 0.8 table and its resamples at 2000 and
    # 100 000 trials (three seeds each). Every resample is kept: the ones the
    # simplex cannot solve within the deadline are the defect this measures.
    exact = sequence.run_sequence(4, 0.95, [0.8])[0]
    tables = [exact] + [
        sampling.sample_counts(exact, trials, int(s)) for s in rng.integers(2**32, size=3) for trials in (2000, 100_000)
    ]
    return _lp_workload(rng, tables, trace_ops=len(tables), deadline_s=N4_DEADLINE_S)


# Argument sets the cli workload draws from, one group per operation kind.
# The report of each is recorded in cli_reports.json (record_cli_reports.py).
CLI_POOL = {
    "witness": [
        ["witness", "--n", "3", "--q", "1", "--etas", "0.6441", "0.7637", "1.0"],
        ["witness", "--n", "4", "--q", "0.9", "--etas", "0.7", "0.8"],
        ["witness", "--n", "5", "--q", "0.8", "--thetas", "0.9", "1.2"],
        ["witness", "--n", "6", "--q", "0.95", "--etas", "0.5", "0.6", "0.7"],
    ],
    "chain": [
        ["chain", "--n", "3", "--q", "1"],
        ["chain", "--n", "8", "--q", "0.9"],
        ["chain", "--n", "25", "--q", "0.7"],
    ],
    "plan": [
        ["plan", "--m", "2", "--q", "0.5"],
        ["plan", "--m", "3", "--q", "0.8"],
        ["plan", "--m", "6", "--q", "0.9"],
    ],
    "anonymous_optimize": [
        ["anonymous", "--n", "10", "--optimize"],
        ["anonymous", "--n", "100", "--optimize"],
        ["anonymous", "--n", "1000", "--optimize"],
    ],
    "anonymous_theta": [
        ["anonymous", "--n", "10", "--theta", "1.0"],
        ["anonymous", "--n", "50", "--theta", "0.5"],
        ["anonymous", "--n", "200", "--theta", "0.3"],
    ],
    "sweep_noise": [
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0.2", "1.0", "9", "--out", f"{OUT_DIR}/sweep.csv"],
        ["sweep", "--mode", "noise", "--n", "12", "--range", "0.5", "1.0", "6"],
    ],
    "sweep_dimension": [
        ["sweep", "--mode", "dimension", "--q", "0.8", "--range", "2", "40", "20", "--out", f"{OUT_DIR}/sweep.csv"],
        ["sweep", "--mode", "dimension", "--q", "1", "--range", "2", "12", "11"],
    ],
    "sweep_anonymous": [
        ["sweep", "--mode", "anonymous", "--n", "20", "--range", "0.3", "1.5", "12", "--out", f"{OUT_DIR}/sweep.csv"],
        ["sweep", "--mode", "anonymous", "--n", "100", "--range", "0.2", "1.2", "8"],
    ],
    "lp": [
        ["lp", "--fixture", "observer1"],
        ["lp", "--fixture", "observer2", "--output", f"{OUT_DIR}/lp.csv"],
        ["lp", "--fixture", "observer3", "--include-omega"],
    ],
    "sample": [
        ["sample", "--fixture", "observer1", "--trials", "1000000", "--seed", "7", "--output", f"{OUT_DIR}/sampled.csv"],
        ["sample", "--fixture", "observer2", "--trials", "1000", "--seed", "3"],
        ["sample", "--fixture", "observer3", "--trials", "20000", "--seed", "11"],
    ],
    "verify": [["verify"]],
}


def run_cli(argv) -> tuple[int, str]:
    """One in-process CLI call: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def report_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def _cli(rng: np.random.Generator) -> Workload:
    # Each round runs every argument set once, in a seeded order, so every seed
    # runs the same mix and each set has one sample per round.
    expected = json.loads(CLI_REPORTS.read_text())
    argvs = [tuple(argv) for pool in CLI_POOL.values() for argv in pool]
    inputs = [argvs[i] for _ in range(ROUNDS) for i in rng.permutation(len(argvs))]
    Path(OUT_DIR).mkdir(exist_ok=True)
    for n in range(2, 11):
        operators.build_observables(n)

    def check(argv, result):
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        if report_digest(stdout) != expected[" ".join(argv)]:
            return "report differs from the recorded one"
        return None

    # At least eleven rounds put eleven `verify` samples at the top, so the
    # tail (ten samples beyond it) is always `verify`.
    return Workload(inputs, run_cli, check, len(argvs), len(argvs), min_rounds=11)


BUILDERS = {"simulate": _simulate, "postprocess": _postprocess, "postprocess_n4": _postprocess_n4, "cli": _cli}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](np.random.default_rng(seed))
