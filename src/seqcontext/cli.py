"""Command-line front end: simulation, planning, LP post-processing, sampling, verification.

Every subcommand prints one JSON report to stdout with the shape
{command, config, results, residuals, version}. Floats are rounded to six
significant digits before serialization so repeated runs are byte-identical.
Exit codes: 0 success; 2 invalid configuration or input data, including a
malformed or incomplete table CSV and a path that cannot be opened; 3
numerical or solver failure. ``dispatch`` is the one place that maps
exceptions to these codes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import cache
from importlib.resources import files
from pathlib import Path

import numpy as np

from . import __version__, planner
from .ensembles import all_bit_strings
from .equivalence_lp import enforce_equivalences
from .planner import anonymous_chain_length, anonymous_optimum, critical_chain, max_shared_observers, min_dimension_parameter
from .sampling import sample_counts
from .selfcheck import run_all
from .sequence import (
    noncontextual_bound,
    read_marginal_csv,
    run_sequence,
    theta_to_eta,
    visibility_chain,
    witness,
    write_marginal_csv,
)

FIXTURE_NAMES = ("observer1", "observer2", "observer3")
SWEEP_MAX_POINTS = 10_000


class CliError(ValueError):
    """Invalid configuration; like every ``ValueError`` it maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled recorded-table fixture (observer1..observer3)."""
    if name not in FIXTURE_NAMES:
        raise CliError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return Path(str(files("seqcontext") / "fixtures" / f"{name}.csv"))


def _sig6(value):
    """Round floats to 6 significant digits, recursively; non-finite becomes None."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return None
        return float(f"{v:.6g}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {k: _sig6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig6(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sig6(v) for v in value.tolist()]
    return value


def _emit(command: str, config: dict, results: dict, residuals: dict) -> None:
    report = {
        "command": command,
        "config": _sig6(config),
        "results": _sig6(results),
        "residuals": _sig6(residuals),
        "version": __version__,
    }
    print(json.dumps(report, indent=2))


def _load_table(args):
    if getattr(args, "fixture", None):
        return read_marginal_csv(fixture_path(args.fixture)), f"fixture:{args.fixture}"
    path = Path(args.input)
    if not path.exists():
        raise CliError(f"input file {path} does not exist")
    return read_marginal_csv(path), str(path)


def _cmd_witness(args) -> int:
    if args.thetas is not None:
        etas = [theta_to_eta(t) for t in args.thetas]
    else:
        etas = list(args.etas)
    plan = visibility_chain(args.n, args.q, etas)
    tables = run_sequence(args.n, args.q, etas)
    simulated = [witness(t) for t in tables]
    deviation = max((abs(a - b) for a, b in zip(simulated, plan.witnesses)), default=0.0)
    _emit(
        "witness",
        {"n": args.n, "q": args.q, "etas": etas},
        {
            "witnesses": simulated,
            "predicted": list(plan.witnesses),
            "visibilities": list(plan.visibilities),
            "quality_factors": list(plan.quality_factors),
            "noncontextual_bound": noncontextual_bound(args.n),
            "violations": [w > noncontextual_bound(args.n) for w in simulated],
        },
        {"max_closed_form_deviation": deviation},
    )
    return 0


def _cmd_chain(args) -> int:
    report = critical_chain(args.n, args.q)
    _emit(
        "chain",
        {"n": args.n, "q": args.q},
        {
            "critical_etas": list(report.critical_etas),
            "visibilities": list(report.visibilities),
            "violations": report.violations,
            "next_required_eta": report.next_required_eta,
            "final_visibility": report.visibilities[-1],
        },
        {},
    )
    return 0


def _cmd_plan(args) -> int:
    plan = min_dimension_parameter(args.m, args.q)
    _emit(
        "plan",
        {"m": args.m, "q": args.q},
        {
            "n": plan.n,
            "bound_from_q": plan.bound_from_q,
            "bound_from_q_sufficient": plan.bound_from_q_sufficient,
            "bound_from_q_squared": plan.bound_from_q_squared,
        },
        {},
    )
    return 0


def _cmd_anonymous(args) -> int:
    if (args.theta is None) == (not args.optimize):
        raise CliError("provide exactly one of --theta or --optimize")
    if args.optimize:
        opt = anonymous_optimum(args.n)
        results = {"theta_star": opt.theta_star, "k_star": opt.k_star, "floor_k_star": math.floor(opt.k_star)}
        config = {"n": args.n, "optimize": True}
    else:
        k = anonymous_chain_length(args.n, args.theta)
        results = {"theta": args.theta, "k": k, "floor_k": math.floor(k)}
        config = {"n": args.n, "theta": args.theta}
    _emit("anonymous", config, results, {})
    return 0


def _cmd_lp(args) -> int:
    table, source = _load_table(args)
    result = enforce_equivalences(table)
    if result.status != "optimal":
        raise RuntimeError(f"linear program returned status {result.status}")
    payload = result.to_json_dict()
    if not args.include_omega:
        payload.pop("omega")
    residuals = payload.pop("residuals")
    if args.output is not None:
        rows = result.post_table
        with Path(args.output).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "p0"])
            for ix, x in enumerate(all_bit_strings(table.n)):
                for y in range(1, table.n + 1):
                    writer.writerow([x, y, repr(float(rows[ix, y - 1]))])
    _emit("lp", {"input": source, "n": table.n}, payload, residuals)
    return 0


def _cmd_sample(args) -> int:
    table, source = _load_table(args)
    sampled = sample_counts(table, args.trials, args.seed)
    if args.output is not None:
        write_marginal_csv(sampled, args.output)
    _emit(
        "sample",
        {"input": source, "trials": args.trials, "seed": args.seed},
        {
            "witness_input": witness(table),
            "witness_sampled": witness(sampled),
            "output": args.output,
        },
        {"max_shift": float(np.max(np.abs(sampled.win - table.win)))},
    )
    return 0


def _sweep_rows(args) -> tuple[list[str], list[list]]:
    lo, hi, count = args.range
    if not (1 <= count <= SWEEP_MAX_POINTS and count.is_integer()):
        raise CliError(f"--range COUNT must be an integer in 1..{SWEEP_MAX_POINTS}, got {count:g}")
    count = int(count)
    if args.mode == "noise":
        if args.n is None:
            raise CliError("--mode noise requires --n")
        qs = np.linspace(lo, hi, count)
        return ["n", "q", "violations"], [[args.n, float(q), max_shared_observers(args.n, float(q))] for q in qs]
    if args.mode == "dimension":
        if args.q is None:
            raise CliError("--mode dimension requires --q")
        if not (math.isfinite(lo) and math.isfinite(hi) and max(lo, hi) <= planner.MAX_CHAIN_N):
            raise CliError(f"--mode dimension needs finite MIN and MAX up to {planner.MAX_CHAIN_N}, got {lo:g} {hi:g}")
        ns = sorted({int(round(v)) for v in np.linspace(lo, hi, count)})
        return ["n", "q", "violations"], [[n, args.q, max_shared_observers(n, args.q)] for n in ns]
    if args.mode == "anonymous":
        if args.n is None:
            raise CliError("--mode anonymous requires --n")
        thetas = np.linspace(lo, hi, count)
        return ["n", "theta", "k"], [[args.n, float(t), anonymous_chain_length(args.n, float(t))] for t in thetas]
    raise CliError(f"unknown sweep mode {args.mode!r}")


def _cmd_sweep(args) -> int:
    header, rows = _sweep_rows(args)
    if args.out is not None:
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(_sig6(row) for row in rows)
    _emit(
        "sweep",
        {"mode": args.mode, "range": list(args.range), "n": args.n, "q": args.q, "out": args.out},
        {"header": header, "rows": rows},
        {},
    )
    return 0


def _cmd_verify(args) -> int:
    checks = run_all()
    all_ok = all(c.ok for c in checks)
    _emit(
        "verify",
        {},
        {"checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks], "all_ok": all_ok},
        {},
    )
    return 0 if all_ok else 3


@cache  # built on the first call, then reused: parse_args leaves the parser as it found it
def _build_parser() -> _Parser:
    parser = _Parser(prog="seqcontext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="simulate an observer chain and report per-observer witnesses")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=1.0)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--etas", type=float, nargs="+")
    group.add_argument("--thetas", type=float, nargs="+")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("chain", help="critical sharpness chain and violation count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("plan", help="smallest n serving m observers at visibility q")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("anonymous", help="equal-sharpness chain length, fixed angle or optimized")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--optimize", action="store_true")
    p.set_defaults(func=_cmd_anonymous)

    p = sub.add_parser("lp", help="enforce parity equivalences on a recorded table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="marginal-table CSV (header x,y,p_win[,sigma])")
    group.add_argument("--fixture", choices=FIXTURE_NAMES, help="bundled recorded table")
    p.add_argument("--output", help="write the post-processed outcome table to this CSV")
    p.add_argument("--include-omega", action="store_true", help="embed the full weight matrix in the report")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("sample", help="finite-statistics resample of a table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input")
    group.add_argument("--fixture", choices=FIXTURE_NAMES)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sweep", help="parameter sweeps as plot-ready CSV rows")
    p.add_argument("--mode", choices=("noise", "dimension", "anonymous"), required=True)
    p.add_argument("--range", type=float, nargs=3, required=True, metavar=("MIN", "MAX", "COUNT"))
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-checking invariant suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    command = "unknown"
    try:
        args = parser.parse_args(argv)
        command = args.command or command
        return args.func(args)
    except Exception as exc:
        # The package raises ValueError, CliError included, only for bad input,
        # and an OSError means a path that cannot be opened. LinAlgError
        # subclasses ValueError but is a numerical failure, and so is every
        # other exception.
        bad_input = isinstance(exc, (ValueError, OSError)) and not isinstance(exc, np.linalg.LinAlgError)
        code = 2 if bad_input else 3
        print(json.dumps({"command": command, "error": {"code": code, "message": str(exc)}, "version": __version__}))
        return code


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
