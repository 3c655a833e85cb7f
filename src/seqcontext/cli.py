"""Command-line front end: simulation, planning, LP post-processing, sampling, verification.

Every subcommand returns its (config, results, residuals) and prints nothing.
``dispatch`` is the one place that prints a report and picks its exit code: it
prints one JSON report to stdout with the shape {command, config, results,
residuals, version}, its floats rounded to six significant digits so repeated
runs are byte-identical. Exit codes: 0 success; 2 invalid configuration or
input data, including a malformed or incomplete table CSV and a path that
cannot be opened; 3 numerical or solver failure, and a ``verify`` report whose
checks do not all pass (its full report is printed first).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, planner
from .equivalence_lp import enforce_equivalences
from .planner import anonymous_chain_length, anonymous_optimum, critical_chain, max_shared_observers, min_dimension_parameter
from .sampling import sample_counts
from .selfcheck import run_all
from .sequence import (
    _table_rows,
    _write_csv,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled recorded-table fixture (observer1..observer3)."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return Path(__file__).parent / "fixtures" / f"{name}.csv"


def _sig6(value):
    """Round floats to 6 significant digits, recursively; non-finite becomes None."""
    if isinstance(value, float):  # np.float64 included: it subclasses float
        return float(f"{value:.6g}") if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _sig6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig6(v) for v in value]
    return value


def _load_table(args):
    if getattr(args, "fixture", None):
        return read_marginal_csv(fixture_path(args.fixture)), f"fixture:{args.fixture}"
    path = Path(args.input)  # the report names it as Path spells it: "./t.csv" reads "t.csv"
    return read_marginal_csv(path), str(path)


def _cmd_witness(args) -> tuple[dict, dict, dict]:
    etas = list(args.etas) if args.thetas is None else [theta_to_eta(t) for t in args.thetas]
    plan = visibility_chain(args.n, args.q, etas)
    tables = run_sequence(args.n, args.q, etas)
    simulated = [witness(t) for t in tables]
    deviation = max((abs(a - b) for a, b in zip(simulated, plan.witnesses)), default=0.0)
    return (
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


def _cmd_chain(args) -> tuple[dict, dict, dict]:
    report = critical_chain(args.n, args.q)
    return (
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


def _cmd_plan(args) -> tuple[dict, dict, dict]:
    plan = min_dimension_parameter(args.m, args.q)
    return (
        {"m": args.m, "q": args.q},
        {
            "n": plan.n,
            "bound_from_q": plan.bound_from_q,
            "bound_from_q_sufficient": plan.bound_from_q_sufficient,
            "bound_from_q_squared": plan.bound_from_q_squared,
        },
        {},
    )


def _cmd_anonymous(args) -> tuple[dict, dict, dict]:
    if (args.theta is None) == (not args.optimize):
        raise ValueError("provide exactly one of --theta or --optimize")
    if args.optimize:
        opt = anonymous_optimum(args.n)
        results = {"theta_star": opt.theta_star, "k_star": opt.k_star, "floor_k_star": math.floor(opt.k_star)}
        return {"n": args.n, "optimize": True}, results, {}
    k = anonymous_chain_length(args.n, args.theta)
    return {"n": args.n, "theta": args.theta}, {"theta": args.theta, "k": k, "floor_k": math.floor(k)}, {}


def _cmd_lp(args) -> tuple[dict, dict, dict]:
    table, source = _load_table(args)
    result = enforce_equivalences(table)
    if result.status != "optimal":
        raise RuntimeError(f"linear program returned status {result.status}")
    results = {
        "a_pre": result.a_pre,
        "a_post": result.a_post,
        "F_raw": result.closeness_raw,
        "F_normalized": result.closeness_normalized,
        "status": result.status,
    }
    if args.include_omega:
        results["omega"] = result.omega.omega.tolist()
    if args.output is not None:
        _write_csv(args.output, ["x", "y", "p0"], _table_rows(result.post_table))
    return {"input": source, "n": table.n}, results, {"max_parity": result.max_parity_residual}


def _cmd_sample(args) -> tuple[dict, dict, dict]:
    table, source = _load_table(args)
    sampled = sample_counts(table, args.trials, args.seed)
    if args.output is not None:
        write_marginal_csv(sampled, args.output)
    return (
        {"input": source, "trials": args.trials, "seed": args.seed},
        {"witness_input": witness(table), "witness_sampled": witness(sampled), "output": args.output},
        {"max_shift": float(np.max(np.abs(sampled.win - table.win)))},
    )


def _sweep_rows(args) -> tuple[list[str], list[list]]:
    lo, hi, count = args.range
    if not (1 <= count <= SWEEP_MAX_POINTS and count.is_integer()):
        raise ValueError(f"--range COUNT must be an integer in 1..{SWEEP_MAX_POINTS}, got {count:g}")
    count = int(count)
    if args.mode == "noise":
        if args.n is None:
            raise ValueError("--mode noise requires --n")
        qs = np.linspace(lo, hi, count)
        return ["n", "q", "violations"], [[args.n, float(q), max_shared_observers(args.n, float(q))] for q in qs]
    if args.mode == "dimension":
        if args.q is None:
            raise ValueError("--mode dimension requires --q")
        if not (math.isfinite(lo) and math.isfinite(hi) and max(lo, hi) <= planner.MAX_CHAIN_N):
            raise ValueError(f"--mode dimension needs finite MIN and MAX up to {planner.MAX_CHAIN_N}, got {lo:g} {hi:g}")
        ns = sorted({int(round(v)) for v in np.linspace(lo, hi, count)})
        return ["n", "q", "violations"], [[n, args.q, max_shared_observers(n, args.q)] for n in ns]
    if args.n is None:  # mode anonymous, the one left of argparse's choices
        raise ValueError("--mode anonymous requires --n")
    thetas = np.linspace(lo, hi, count)
    return ["n", "theta", "k"], [[args.n, float(t), anonymous_chain_length(args.n, float(t))] for t in thetas]


def _cmd_sweep(args) -> tuple[dict, dict, dict]:
    header, rows = _sweep_rows(args)
    if args.out is not None:
        _write_csv(args.out, header, _sig6(rows))
    config = {"mode": args.mode, "range": list(args.range), "n": args.n, "q": args.q, "out": args.out}
    return config, {"header": header, "rows": rows}, {}


def _cmd_verify(args) -> tuple[dict, dict, dict]:
    checks = run_all()
    rows = [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks]
    return {}, {"checks": rows, "all_ok": all(c.ok for c in checks)}, {}


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
        command = args.command
        config, results, residuals = args.func(args)
    except Exception as exc:
        # ValueError means bad input and OSError a path that cannot be opened. LinAlgError
        # subclasses ValueError but is a numerical failure, like every other exception.
        bad_input = isinstance(exc, (ValueError, OSError)) and not isinstance(exc, np.linalg.LinAlgError)
        code = 2 if bad_input else 3
        print(json.dumps({"command": command, "error": {"code": code, "message": str(exc)}, "version": __version__}))
        return code
    report = {"command": command, "config": config, "results": results, "residuals": residuals, "version": __version__}
    print(json.dumps(_sig6(report), indent=2))
    return 3 if results.get("all_ok") is False else 0  # only verify's report carries all_ok


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
