import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import seqcontext
from seqcontext import cli, ensembles, equivalence_lp, selfcheck, sequence
from seqcontext.cli import dispatch, fixture_path
from seqcontext.sampling import sample_counts
from seqcontext.operators import SIGMA_X, SIGMA_Y, SIGMA_Z, build_observables
from seqcontext.planner import ChainReport
from seqcontext.sequence import (
    MarginalTable,
    UnsharpSetting,
    kraus_operator,
    read_marginal_csv,
    run_sequence,
    witness,
)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------- sampling

def test_sample_counts_deterministic():
    table = run_sequence(3, 1.0, [0.6441])[0]
    first = sample_counts(table, 1000, seed=42)
    second = sample_counts(table, 1000, seed=42)
    np.testing.assert_array_equal(first.win, second.win)
    different = sample_counts(table, 1000, seed=43)
    assert np.any(different.win != first.win)



def test_sample_counts_rejects_a_non_integer_trial_count():
    table = run_sequence(3, 1.0, [0.6441])[0]
    # 2.5 would draw 2 trials and divide by 2.5; True would run as 1 trial
    for bad in (2.5, 1000.0, np.float64(1000), True, False, "1000", None):
        with pytest.raises(ValueError, match="integer"):
            sample_counts(table, bad, seed=42)
    np.testing.assert_array_equal(sample_counts(table, np.int64(1000), seed=42).win, sample_counts(table, 1000, seed=42).win)

def test_sample_counts_degenerate_entries_exact():
    win = np.zeros((4, 2))
    win[0, 0] = 1.0
    # MarginalTable accepts entries within 1e-12 of [0, 1]; the binomial draw takes only [0, 1]
    win[1, 0], win[2, 1] = -5e-13, 1.0 + 5e-13
    table = MarginalTable(n=2, win=win)
    sampled = sample_counts(table, 10, seed=1)
    np.testing.assert_array_equal(sampled.win, np.clip(win, 0.0, 1.0))


def test_sample_counts_concentration():
    table = run_sequence(3, 1.0, [0.6441])[0]
    trials = 10**7
    sampled = sample_counts(table, trials, seed=7)
    bound = 3.0 * np.sqrt(table.win * (1.0 - table.win) / trials)
    within = np.abs(sampled.win - table.win) <= bound
    assert within.mean() >= 0.99


def test_sample_counts_validation():
    table = run_sequence(2, 1.0, [1.0])[0]
    with pytest.raises(ValueError):
        sample_counts(table, 0, seed=1)
    with pytest.raises(ValueError):
        sample_counts(table, 2**63, seed=1)
    assert sample_counts(table, 2**63 - 1, seed=1).win.shape == table.win.shape


# ---------------------------------------------------------------- commands

def test_witness_command(capsys):
    code, report = run_json(
        capsys, "witness", "--n", "3", "--q", "1", "--etas", "0.6441", "0.7637", "1.0"
    )
    assert code == 0
    assert report["command"] == "witness"
    assert report["version"]
    for value in report["results"]["witnesses"]:
        assert value == pytest.approx(0.6859, abs=5e-5)
    assert report["residuals"]["max_closed_form_deviation"] <= 1e-9
    assert report["results"]["violations"] == [True, True, True]


def test_witness_command_thetas(capsys):
    code, report = run_json(capsys, "witness", "--n", "3", "--thetas", "1.5707963267948966")
    assert code == 0
    assert report["results"]["witnesses"][0] == pytest.approx(0.788675, abs=1e-6)


def test_chain_command(capsys):
    code, report = run_json(capsys, "chain", "--n", "4", "--q", "1")
    assert code == 0
    assert report["results"]["violations"] == 4
    assert report["results"]["next_required_eta"] > 1.0


def test_plan_command(capsys):
    code, report = run_json(capsys, "plan", "--m", "2", "--q", "0.5")
    assert code == 0
    assert report["results"]["n"] == 8
    assert report["results"]["bound_from_q"] == 4
    assert report["results"]["bound_from_q_sufficient"] is False
    assert report["results"]["bound_from_q_squared"] == 8


def test_anonymous_command(capsys):
    code, report = run_json(capsys, "anonymous", "--n", "100", "--optimize")
    assert code == 0
    assert report["results"]["k_star"] == pytest.approx(37.658, abs=0.01)

    code, report = run_json(capsys, "anonymous", "--n", "3", "--theta", "1.2")
    assert code == 0
    assert report["results"]["k"] > 1.0


def test_anonymous_optimize_at_large_n(capsys):
    code, report = run_json(capsys, "anonymous", "--n", str(10**15), "--optimize")
    assert code == 0
    assert report["results"]["k_star"] == pytest.approx(10**15 / np.e, rel=1e-3)


def test_anonymous_requires_exactly_one_mode(capsys):
    code, report = run_json(capsys, "anonymous", "--n", "3")
    assert code == 2
    assert "error" in report


def test_lp_command_on_fixture(capsys):
    code, report = run_json(capsys, "lp", "--fixture", "observer1")
    assert code == 0
    assert report["results"]["a_pre"] == pytest.approx(0.687, abs=1e-3)
    assert report["results"]["a_post"] == pytest.approx(0.683, abs=3e-3)
    assert report["results"]["F_normalized"] == pytest.approx(0.9690, abs=3e-3)
    assert "omega" not in report["results"]
    assert report["residuals"]["max_parity"] <= 1e-8


def test_lp_command_include_omega_and_output(capsys, tmp_path):
    out = tmp_path / "post.csv"
    code, report = run_json(
        capsys, "lp", "--fixture", "observer2", "--include-omega", "--output", str(out)
    )
    assert code == 0
    assert len(report["results"]["omega"]) == 8
    assert out.exists()
    assert out.read_text().startswith("x,y,p0")


def test_lp_missing_input(capsys):
    code, report = run_json(capsys, "lp", "--input", "/nonexistent/table.csv")
    assert code == 2
    assert "error" in report


def test_lp_refuses_tables_above_max_lp_n(capsys, monkeypatch, tmp_path):
    def unreachable(*args):
        raise AssertionError("a table above MAX_LP_N reached the program")

    monkeypatch.setattr(equivalence_lp, "_build_program", unreachable)
    n = equivalence_lp.MAX_LP_N + 1
    path = tmp_path / "n5.csv"
    rows = [f"{format(ix, f'0{n}b')},{y},0.5" for ix in range(2**n) for y in range(1, n + 1)]
    path.write_text("\n".join(["x,y,p_win", *rows]) + "\n")
    start = time.perf_counter()
    code, report = run_json(capsys, "lp", "--input", str(path))
    assert time.perf_counter() - start < 1.0
    assert_error_only(code, report, 2)
    assert "MAX_LP_N" in report["error"]["message"]


def test_sample_command_round_trip(capsys, tmp_path):
    out = tmp_path / "sampled.csv"
    code, report = run_json(
        capsys, "sample", "--fixture", "observer1", "--trials", "100000", "--seed", "5",
        "--output", str(out),
    )
    assert code == 0
    sampled = read_marginal_csv(out)
    assert sampled.n == 3
    expected = sample_counts(read_marginal_csv(fixture_path("observer1")), 100000, 5)
    assert sampled.win.tobytes() == expected.win.tobytes() and sampled.sigma.tobytes() == expected.sigma.tobytes()
    assert report["results"]["witness_sampled"] == pytest.approx(
        witness(sampled), abs=1e-6
    )


def test_sweep_noise_mode(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, report = run_json(
        capsys, "sweep", "--mode", "noise", "--n", "6", "--range", "0.2", "1.0", "5",
        "--out", str(out),
    )
    assert code == 0
    assert report["results"]["header"] == ["n", "q", "violations"]
    rows = report["results"]["rows"]
    assert len(rows) == 5
    violations = [row[2] for row in rows]
    assert violations == sorted(violations)
    assert out.read_text().startswith("n,q,violations")


def test_sweep_dimension_mode(capsys):
    code, report = run_json(
        capsys, "sweep", "--mode", "dimension", "--q", "1.0", "--range", "2", "6", "5"
    )
    assert code == 0
    assert [row[2] for row in report["results"]["rows"]] == [2, 3, 4, 5, 6]


def test_sweep_anonymous_mode(capsys):
    code, report = run_json(
        capsys, "sweep", "--mode", "anonymous", "--n", "9", "--range", "0.4", "1.5", "7"
    )
    assert code == 0
    assert report["results"]["header"] == ["n", "theta", "k"]
    assert all(row[2] >= 1.0 for row in report["results"]["rows"])


# Reference writers: one nested csv.writer loop per kind of file, which the package's one writer must match byte for byte.
def _reference_marginal_csv(table, path):
    with Path(path).open("w", newline="") as fh:
        fields = ["x", "y", "p_win"] + (["sigma"] if table.sigma is not None else [])
        writer = csv.writer(fh)
        writer.writerow(fields)
        for ix, x in enumerate(ensembles.all_bit_strings(table.n)):
            for y in range(1, table.n + 1):
                row = [x, y, repr(float(table.win[ix, y - 1]))]
                if table.sigma is not None:
                    row.append(repr(float(table.sigma[ix, y - 1])))
                writer.writerow(row)


def _reference_lp_csv(n, post_table, path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "p0"])
        for ix, x in enumerate(ensembles.all_bit_strings(n)):
            for y in range(1, n + 1):
                writer.writerow([x, y, repr(float(post_table[ix, y - 1]))])


def _reference_sweep_csv(argv, path):
    header, rows = cli._sweep_rows(cli._build_parser().parse_args(argv))
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(cli._sig6(row) for row in rows)


def _reference_lp(path):
    table = read_marginal_csv(fixture_path("observer2"))
    _reference_lp_csv(table.n, equivalence_lp.enforce_equivalences(table).post_table, path)


def _reference_sample(path):
    _reference_marginal_csv(sample_counts(read_marginal_csv(fixture_path("observer1")), 1_000_000, 7), path)


SWEEPS = {
    "noise": ["sweep", "--mode", "noise", "--n", "6", "--range", "0.2", "1.0", "9"],
    "dimension": ["sweep", "--mode", "dimension", "--q", "0.8", "--range", "2", "40", "12"],
    "anonymous": ["sweep", "--mode", "anonymous", "--n", "9", "--range", "0.4", "1.5", "7"],
}
# (argv up to the output path, the reference writer of the same file)
COMMAND_FILES = {
    "lp-output": (["lp", "--fixture", "observer2", "--output"], _reference_lp),
    "sample-output": (["sample", "--fixture", "observer1", "--trials", "1000000", "--seed", "7", "--output"], _reference_sample),
    **{
        f"sweep-{mode}-out": ([*argv, "--out"], lambda path, argv=argv: _reference_sweep_csv(argv, path))
        for mode, argv in SWEEPS.items()
    },
}


@pytest.mark.parametrize("name", COMMAND_FILES)
def test_each_file_a_command_writes_is_byte_equal_to_the_nested_csv_writer_loops(capsys, tmp_path, name):
    argv, reference = COMMAND_FILES[name]
    assert dispatch([*argv, str(tmp_path / "written.csv")]) == 0
    reference(tmp_path / "reference.csv")
    written = (tmp_path / "written.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.count(b"\r\n") > 1  # csv's own line ends: the header and at least one row


@pytest.mark.parametrize("with_sigma", [False, True], ids=["p_win", "p_win-sigma"])
def test_write_marginal_csv_is_byte_equal_to_the_nested_csv_writer_loop(tmp_path, with_sigma):
    rng = np.random.default_rng(3)  # full-precision floats, so repr's 17 digits are pinned
    table = MarginalTable(n=3, win=rng.random((8, 3)), sigma=rng.random((8, 3)) if with_sigma else None)
    sequence.write_marginal_csv(table, tmp_path / "written.csv")
    _reference_marginal_csv(table, tmp_path / "reference.csv")
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_sweep_count_at_limit_succeeds(capsys):
    code, report = run_json(capsys, "sweep", "--mode", "noise", "--n", "6", "--range", "0", "1", "10000")
    assert code == 0
    assert len(report["results"]["rows"]) == 10000


@pytest.mark.parametrize(
    "argv,key", [(["chain", "--n", "1000"], "violations"), (["plan", "--m", "1000", "--q", "1"], "n")]
)
def test_planner_at_its_limit_succeeds(capsys, argv, key):
    code, report = run_json(capsys, *argv)
    assert code == 0
    assert report["results"][key] == 1000


def test_sweep_requires_mode_parameters(capsys):
    code, report = run_json(capsys, "sweep", "--mode", "noise", "--range", "0", "1", "3")
    assert code == 2
    assert "error" in report


def test_invalid_config_returns_error_json(capsys):
    code, report = run_json(capsys, "witness", "--n", "1", "--etas", "0.5")
    assert code == 2
    assert report["error"]["code"] == 2

    code, report = run_json(capsys, "chain", "--n", "3", "--q", "2.0")
    assert code == 2


def test_malformed_data_returns_failure_json(capsys, tmp_path):
    # p_win = 1.4 is bad input data, not a numerical failure
    bad = tmp_path / "bad.csv"
    rows = ["x,y,p_win"] + [f"{x},{y},1.4" for x in ("00", "01", "10", "11") for y in (1, 2)]
    bad.write_text("\n".join(rows) + "\n")
    code, report = run_json(capsys, "lp", "--input", str(bad))
    assert code == 2
    assert report["error"]["code"] == 2


def test_lp_rejects_non_finite_or_negative_sigma(capsys, tmp_path):
    # Only the sigma column is bad: one nan and one negative entry.
    bad = tmp_path / "t.csv"
    sigmas = iter(["nan", "-5"] + ["0.01"] * 6)
    rows = ["x,y,p_win,sigma"] + [f"{x},{y},0.5,{next(sigmas)}" for x in ("00", "01", "10", "11") for y in (1, 2)]
    bad.write_text("\n".join(rows) + "\n")
    code, report = run_json(capsys, "lp", "--input", str(bad))
    assert_error_only(code, report, 2)
    assert "sigma" in report["error"]["message"]


def assert_error_only(code, report, expected):
    """An error report carries the exit code and nothing of a partial result."""
    assert code == expected
    assert set(report) == {"command", "error", "version"}
    assert report["error"]["code"] == expected


N3_ROWS = [f"{x},{y},0.5" for x in ("000", "001", "010", "011", "100", "101", "110", "111") for y in (1, 2, 3)]


@pytest.mark.parametrize(
    "command,rows",
    [
        ("lp", N3_ROWS[:6] + ["0x1,1,0.5"] + N3_ROWS[7:]),
        ("lp", N3_ROWS[:-2]),
        ("sample", N3_ROWS[:-2]),
        ("lp", N3_ROWS[:-1] + ["111,3"]),
        ("lp", ["0" * 30 + ",1,0.5"]),
        ("lp", ["000,1,nan", *N3_ROWS]),
        ("lp", N3_ROWS[:-1] + ["111,3,0.5,0.01"]),
        ("lp", ["x,y,p_win,sigma,SIGMA"] + [row + ",0.01,0.01" for row in N3_ROWS]),
        ("lp", ["000,+1,0.5", *N3_ROWS[1:]]),
        ("lp", ["000,\uff11,0.5", *N3_ROWS[1:]]),
        ("lp", ["000,1,0.2_5", *N3_ROWS[1:]]),
        ("lp", ["000,1,\uff10.\uff15", *N3_ROWS[1:]]),
        ("lp", ["000,1, 0.5 ", *N3_ROWS[1:]]),
        ("lp", ["x,y,p_win,sigma", "000,1,0.5,0.0_1", *(row + ",0.01" for row in N3_ROWS[1:])]),
        ("lp", ["x,y,p_win,sigma", "000,1,0.5,\uff10.\uff10\uff11", *(row + ",0.01" for row in N3_ROWS[1:])]),
        ("lp", ["x,y,p_win,sigma", "000,1,0.5, 0.01 ", *(row + ",0.01" for row in N3_ROWS[1:])]),
    ],
    ids=[
        "bad-bit-string",
        "lp-missing-rows",
        "sample-missing-rows",
        "short-row",
        "one-row-30-bits",
        "lp-nan-then-duplicate",
        "extra-field",
        "extra-header-column",
        "plus-sign-y",
        "fullwidth-digit-y",
        "underscore-p_win",
        "fullwidth-p_win",
        "spaced-p_win",
        "underscore-sigma",
        "fullwidth-sigma",
        "spaced-sigma",
    ],
)
def test_malformed_csv_exits_2(capsys, tmp_path, command, rows):
    # Rows are written under the header x,y,p_win unless they start with a header of their own.
    path = tmp_path / "table.csv"
    path.write_text("\n".join(rows if rows[0].startswith("x,") else ["x,y,p_win", *rows]) + "\n", encoding="utf-8")
    extra = ["--trials", "10"] if command == "sample" else []
    code, report = run_json(capsys, command, "--input", str(path), *extra)
    assert_error_only(code, report, 2)
    if rows[0] == "000,1,nan":
        assert "duplicate entry for x=000, y=1" in report["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--n", "3", "--thetas", "-0.5"],
        ["sample", "--fixture", "observer1", "--trials", "0"],
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0", "1", "0"],
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0", "1", "inf"],
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0", "1", "10001"],
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0", "1", "100000000"],
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0", "1", "2.5"],
        ["witness", "--n", "30", "--etas", "0.5"],
        ["witness", "--n", "7000", "--etas", "0.5"],
        ["witness", "--n", "100000000", "--etas", "0.5"],
        ["sample", "--fixture", "observer1", "--trials", str(2**63)],
        ["sample", "--fixture", "observer1", "--trials", str(10**30)],
        ["chain", "--n", "1001"],
        ["chain", "--n", str(10**400)],
        ["plan", "--m", "100", "--q", "0.01"],
        ["plan", "--m", str(10**400), "--q", "1"],
        ["anonymous", "--n", str(10**400), "--optimize"],
        ["anonymous", "--n", str(10**400), "--theta", "1.0"],
        ["sweep", "--mode", "dimension", "--q", "1", "--range", "2", "1e300", "3"],
        ["sweep", "--mode", "dimension", "--q", "1", "--range", "2", "nan", "3"],
    ],
    ids=[
        "negative-theta",
        "zero-trials",
        "zero-count",
        "inf-count",
        "count-10001",
        "count-1e8",
        "fractional-count",
        "oversized-witness",
        "witness-n-7000",
        "witness-n-1e8",
        "trials-2e63",
        "trials-1e30",
        "chain-1001",
        "chain-400-digits",
        "plan-above-limit",
        "plan-400-digits",
        "anonymous-optimize-400-digits",
        "anonymous-theta-400-digits",
        "dimension-sweep-1e300",
        "dimension-sweep-nan",
    ],
)
def test_invalid_values_exit_2(capsys, argv):
    # each is refused up front, before any sized work starts
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    report = json.loads(out)
    assert_error_only(code, report, 2)
    if argv[0] == "witness" and "--etas" in argv:
        # a dense size is refused by its n alone: the report names the bound, with no size arithmetic in it
        assert "MAX_DENSE_N" in report["error"]["message"] and len(out) < 300


@pytest.mark.parametrize(
    "argv",
    [
        ["lp", "--input", "{dir}"],
        ["sample", "--fixture", "observer1", "--trials", "10", "--output", "{dir}/missing/x.csv"],
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0", "1", "3", "--out", "{dir}/missing/x.csv"],
    ],
    ids=["lp-input-directory", "sample-output-missing-dir", "sweep-out-missing-dir"],
)
def test_unopenable_paths_exit_2(capsys, tmp_path, argv):
    code, report = run_json(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert_error_only(code, report, 2)


@pytest.mark.parametrize("error", [RuntimeError, np.linalg.LinAlgError])
def test_solver_failure_exits_3(capsys, monkeypatch, error):
    # LinAlgError subclasses ValueError, yet it is a numerical failure
    def broken(*args, **kwargs):
        raise error("simplex failed to terminate")

    monkeypatch.setattr(equivalence_lp, "solve_lp", broken)
    code, report = run_json(capsys, "lp", "--fixture", "observer1")
    assert_error_only(code, report, 3)
    assert "simplex" in report["error"]["message"]


def test_reports_are_byte_identical_across_runs(capsys):
    _, first = run_cli(capsys, "lp", "--fixture", "observer3")
    _, second = run_cli(capsys, "lp", "--fixture", "observer3")
    assert first == second

    _, first = run_cli(capsys, "sample", "--fixture", "observer1", "--trials", "999", "--seed", "11")
    _, second = run_cli(capsys, "sample", "--fixture", "observer1", "--trials", "999", "--seed", "11")
    assert first == second


# One argument list per subcommand, with `anonymous` in both of its modes.
REUSE_ARGVS = [
    ["witness", "--n", "3", "--q", "1", "--etas", "0.6441", "0.7637"],
    ["chain", "--n", "5", "--q", "0.9"],
    ["plan", "--m", "3", "--q", "0.8"],
    ["anonymous", "--n", "10", "--optimize"],
    ["anonymous", "--n", "10", "--theta", "1.0"],
    ["lp", "--fixture", "observer1"],
    ["sample", "--fixture", "observer2", "--trials", "1000", "--seed", "3"],
    ["sweep", "--mode", "dimension", "--q", "0.8", "--range", "2", "12", "4"],
    ["verify"],
]


PLAIN_TYPES = {dict, list, tuple, str, bool, int, float, type(None)}


def _plain_types(value):
    """The set of types in a report, walked the way _sig6 walks it."""
    found = {type(value)}
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            found |= _plain_types(v)
    return found


def test_every_report_holds_plain_python_values_before_it_is_rounded(capsys, monkeypatch, tmp_path):
    # _sig6 rounds floats and nests containers only; a numpy value would reach json.dumps untouched.
    seen = []
    sig6 = cli._sig6
    monkeypatch.setattr(cli, "_sig6", lambda value: seen.append(_plain_types(value)) or sig6(value))
    argvs = [
        *REUSE_ARGVS,
        ["lp", "--fixture", "observer3", "--include-omega", "--output", str(tmp_path / "lp.csv")],
        ["sample", "--fixture", "observer1", "--trials", "100", "--output", str(tmp_path / "sampled.csv")],
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0.2", "1.0", "3", "--out", str(tmp_path / "s.csv")],
        ["sweep", "--mode", "anonymous", "--n", "9", "--range", "0.4", "1.5", "3"],
    ]
    assert {argv[0] for argv in argvs} == {"witness", "chain", "plan", "anonymous", "lp", "sample", "sweep", "verify"}
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == 0
        assert set.union(*seen) <= PLAIN_TYPES, argv
        seen.clear()


def test_one_parser_serves_repeated_calls_in_a_process(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    forward = [run_cli(capsys, *argv) for argv in REUSE_ARGVS]
    assert all(code == 0 for code, _ in forward)
    # exit-2 calls in between: one refused after parsing, two by the parser itself
    for argv in (
        ["sweep", "--mode", "noise", "--n", "6", "--range", "0.2", "1.0", "0"],
        ["lp", "--fixture", "observer1", "--input", "table.csv"],
        ["witness", "--n", "3"],
    ):
        assert run_json(capsys, *argv)[0] == 2
    backward = [run_cli(capsys, *argv) for argv in reversed(REUSE_ARGVS)]
    assert backward[::-1] == forward

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert [run_cli(capsys, *argv) for argv in REUSE_ARGVS] == forward


def test_a_pre_equals_mean_of_entries():
    for name in ("observer1", "observer2", "observer3"):
        table = read_marginal_csv(fixture_path(name))
        assert witness(table) == pytest.approx(float(np.mean(table.win)), abs=1e-12)


def test_a_failing_verify_check_prints_the_full_report_and_exits_3(capsys, monkeypatch):
    checks = selfcheck.run_all()
    checks[1] = dataclasses.replace(checks[1], ok=False)
    monkeypatch.setattr(cli, "run_all", lambda: checks)
    code, report = run_json(capsys, "verify")
    assert code == 3
    assert set(report) == {"command", "config", "results", "residuals", "version"}
    assert report["command"] == "verify" and report["results"]["all_ok"] is False
    assert [check["ok"] for check in report["results"]["checks"]] == [i != 1 for i in range(len(checks))]


def test_the_module_run_as_a_process_prints_the_in_process_report(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run_process(*argv):
        return subprocess.run([sys.executable, "-m", "seqcontext.cli", *argv], env=env, capture_output=True, check=False)

    done = run_process("chain", "--n", "3", "--q", "1")
    assert done.returncode == 0
    assert done.stdout == run_cli(capsys, "chain", "--n", "3", "--q", "1")[1].encode()
    refused = run_process("chain", "--n", "1")
    assert_error_only(refused.returncode, json.loads(refused.stdout), 2)
    assert refused.stdout.count(b"\n") == 1  # one JSON line and nothing else


def test_verify_prints_the_same_bytes_with_its_caches_cold_and_warm(capsys):
    for cache in (sequence._instrument, ensembles._signed_sums):
        cache.cache_clear()
    cold = run_cli(capsys, "verify")
    assert sequence._instrument.cache_info().currsize > 0 and ensembles._signed_sums.cache_info().currsize == 1
    warm = run_cli(capsys, "verify")
    assert cold[0] == 0 and warm == cold


def test_povm_completeness_detail_matches_a_per_operator_reference():
    # One (y, eta) at a time from the public constructor, each K'K its own 2-D product.
    worst = 0.0
    for n in range(2, selfcheck.POVM_N_MAX + 1):
        eye = np.eye(build_observables(n).shape[-1])
        for y in range(1, n + 1):
            for eta in (0.0, 0.3, 0.7637, 1.0):
                total = np.zeros_like(eye, dtype=complex)
                for b in (0, 1):
                    k = kraus_operator(UnsharpSetting(n=n, y=y, b=b, eta=eta))
                    total += k.conj().T @ k
                worst = max(worst, float(np.max(np.abs(total - eye))))
    result = selfcheck.check_povm_completeness()
    assert result.ok and result.detail == f"max |sum K'K - 1| = {worst:.3e}"


@pytest.mark.parametrize(
    "family, detail",
    [
        # pairs (1, 2), (1, 3) and (2, 3) tie at |{X, X}| = 2: the first is named
        ([SIGMA_X, SIGMA_X, SIGMA_X], "residual 2.000e+00 at pair (1, 2)"),
        # (1, 3) and (2, 3) tie at sqrt(2), a row apart
        ([SIGMA_X, SIGMA_Z, (SIGMA_X + SIGMA_Z) / np.sqrt(2.0)], "residual 1.414e+00 at pair (1, 3)"),
        # (2, 3) at 3 beats the diagonal pair (3, 3) at 2.5 after it
        ([SIGMA_Z, SIGMA_X, 1.5 * SIGMA_X], "residual 3.000e+00 at pair (2, 3)"),
    ],
    ids=["three-equal", "tilted-third", "scaled-third"],
)
def test_anticommutation_names_the_first_worst_pair(monkeypatch, family, detail):
    def broken(n):
        return np.array(family, dtype=complex) if n == 3 else build_observables(n)

    monkeypatch.setattr(selfcheck, "build_observables", broken)
    result = selfcheck.check_anticommutation()
    assert not result.ok and result.detail == f"n=3: {detail}"


@pytest.mark.parametrize("off, ok", [(2.5e-13, True), (1e-12, False)])
def test_anticommutation_check_refuses_a_residual_of_2e_12(monkeypatch, off, ok):
    # {X, Z + off X} = 2 off 1, so the n = 3 residual is 5e-13 (within 1e-12) or 2e-12 (past it) at pair (1, 3).
    family = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z + off * SIGMA_X])
    monkeypatch.setattr(selfcheck, "build_observables", lambda n: family if n == 3 else build_observables(n))
    result = selfcheck.check_anticommutation()
    assert result.ok is ok
    assert result.detail.endswith("max residual 5.000e-13" if ok else "n=3: residual 2.000e-12 at pair (1, 3)")


@pytest.mark.parametrize("off, ok", [(5e-10, True), (2e-9, False)])
def test_lp_oracle_check_refuses_a_simplex_objective_off_by_2e_9(monkeypatch, off, ok):
    # Every simplex optimum moved by `off`: 5e-10 is within the 1e-9 gap the check allows, 2e-9 is not.
    solve = selfcheck.solve_lp

    def shifted(*program):
        solved = solve(*program)
        return dataclasses.replace(solved, objective=solved.objective + off)

    monkeypatch.setattr(selfcheck, "solve_lp", shifted)
    result = selfcheck.check_lp_oracle()
    assert result.ok is ok
    assert ok or result.detail.startswith("instance 0: simplex")


@pytest.mark.parametrize(
    "edge, inside, ok",
    [("lower", 5e-13, False), ("upper", 5e-13, False), ("lower", 5e-12, True), ("upper", 5e-12, True)],
)
def test_sandwich_check_refuses_a_drop_within_5e_13_of_its_bound(monkeypatch, edge, inside, ok):
    # A one-step chain per n whose squared-visibility drop lies `inside` within (n-1)/n^2 or 1/n.
    def chain(n, q):
        drop = (n - 1) / n**2 + inside if edge == "lower" else 1.0 / n - inside
        visibilities = (1.0, (1.0 - drop) ** 0.5)
        return ChainReport(n, q, critical_etas=(1.0,), visibilities=visibilities, violations=1, next_required_eta=2.0)

    monkeypatch.setattr(selfcheck, "critical_chain", chain)
    result = selfcheck.check_sandwich()
    assert result.ok is ok
    assert ok or result.detail.startswith("n=2, step 1: drop")


@pytest.mark.parametrize("defect, ok", [(1e-10, False), (1e-11, True)])
def test_visibility_check_scales_its_basis_residual_by_2n_minus_1(monkeypatch, defect, ok):
    # A channel off by `defect` in every entry leaves a raw residual of 5 defects after n = 6's five evolves:
    # under 1e-9 for both, but 11 times it is above 1e-9 only for the larger.
    evolve = selfcheck._evolve
    monkeypatch.setattr(selfcheck, "_evolve", lambda states, eta, n: evolve(states, eta, n) + defect)
    result = selfcheck.check_visibility_lemma()
    assert float(result.detail.rpartition("= ")[2]) < 1e-9
    assert result.ok is ok


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    closed_form, simulated, lp = (line.split() for line in out.getvalue().splitlines())
    assert len(closed_form) == len(simulated) == 3 and len(lp) == 3


def test_all_names_every_public_non_module_name_of_the_package():
    bound = {
        name
        for name, value in vars(seqcontext).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(seqcontext.__all__) == sorted(bound)
