"""Input-domain contract: every subcommand and the table, sampling, observable, preparation, channel,
simulation, planning and LP entry points, fed edge and malformed input.

Each case names its exact outcome: exit 0 or 2 through ``cli.dispatch``, a result or a
``ValueError`` from the library. pytest turns warnings into errors, so a warning that escapes
inside ``dispatch`` would read as exit 3 and fail its case. Every lp report that exits 0 is
checked again from the CSV it wrote, and every call must end within ``CALL_BUDGET_S``.
"""

import csv
import json
import time

import numpy as np
import pytest

from seqcontext.cli import dispatch
from seqcontext.ensembles import build_ensemble, build_preparation
from seqcontext.equivalence_lp import PARITY_RESIDUAL_TOL, enforce_equivalences, parity_residual
from seqcontext.operators import build_observables
from seqcontext.planner import anonymous_chain_length, anonymous_optimum, critical_chain, min_dimension_parameter
from seqcontext.sampling import sample_counts
from seqcontext.sequence import (
    MarginalTable,
    UnsharpSetting,
    closed_form_witness,
    evolve_average,
    marginal_probability,
    quality_factor,
    read_marginal_csv,
    run_sequence,
    theta_to_eta,
    visibility_chain,
)

SEED = 16
# Far above any case here (an n = 3 lp takes tens of ms), far below a solve that does not terminate.
CALL_BUDGET_S = 10.0
ABOVE_ONE = repr(float(np.nextafter(1.0, 2.0)))
BELOW_ZERO = repr(float(np.nextafter(0.0, -1.0)))  # the negative denormal


def _valid_tables() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(SEED)
    tables = {}
    for n in (2, 3):  # lp tables stay at n <= 3: a uniform n = 4 table takes seconds
        shape = (2**n, n)
        tables[f"n{n}-all-0"] = np.zeros(shape)
        tables[f"n{n}-all-1"] = np.ones(shape)
        tables[f"n{n}-all-0.5"] = np.full(shape, 0.5)
        tables[f"n{n}-denormal"] = np.full(shape, 5e-324)
        tables[f"n{n}-negative-zero"] = np.full(shape, -0.0)
        tables[f"n{n}-seeded"] = rng.uniform(size=shape)
    return tables


def _bad_tables() -> dict[str, np.ndarray]:
    bad = {"n1": np.full((2, 1), 0.5)}
    for name, value in (("nan", np.nan), ("inf", np.inf), ("negative", -0.25)):
        win = np.full((4, 2), 0.5)
        win[2, 1] = value
        bad[name] = win
    return bad


VALID = _valid_tables()
BAD = _bad_tables()


def _write_table(path, win: np.ndarray) -> str:
    n = win.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "p_win"])
        for ix in range(2**n):
            for y in range(1, n + 1):
                writer.writerow([format(ix, f"0{n}b"), y, repr(float(win[ix, y - 1]))])
    return str(path)


def _timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    assert time.perf_counter() - start < CALL_BUDGET_S
    return result


def _exit_code(capsys, argv) -> int:
    code = _timed(dispatch, argv)
    report = json.loads(capsys.readouterr().out)
    assert ("error" in report) == (code != 0)
    return code


@pytest.mark.parametrize("name", VALID)
def test_lp_of_a_valid_table_exits_0_and_its_output_meets_every_parity(capsys, tmp_path, name):
    table = _write_table(tmp_path / "in.csv", VALID[name])
    out = tmp_path / "out.csv"
    assert _exit_code(capsys, ["lp", "--input", table, "--output", str(out)]) == 0
    n = VALID[name].shape[1]
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    p0 = np.empty((2**n, n))
    for row in rows:
        p0[int(row["x"], 2), int(row["y"]) - 1] = float(row["p0"])
    assert len(rows) == p0.size
    assert parity_residual(p0, n) <= PARITY_RESIDUAL_TOL


@pytest.mark.parametrize("name", VALID)
def test_sample_of_a_valid_table_exits_0(capsys, tmp_path, name):
    table = _write_table(tmp_path / "in.csv", VALID[name])
    out = tmp_path / "out.csv"
    argv = ["sample", "--input", table, "--trials", "10", "--seed", str(SEED), "--output", str(out)]
    assert _exit_code(capsys, argv) == 0
    assert read_marginal_csv(out).win.shape == VALID[name].shape


@pytest.mark.parametrize("command", [["lp"], ["sample", "--trials", "10"]], ids=["lp", "sample"])
@pytest.mark.parametrize("name", BAD)
def test_a_bad_table_exits_2_as_csv_and_raises_as_an_array(capsys, tmp_path, name, command):
    table = _write_table(tmp_path / "in.csv", BAD[name])
    assert _exit_code(capsys, [command[0], "--input", table, *command[1:]]) == 2
    with pytest.raises(ValueError):
        MarginalTable(n=BAD[name].shape[1], win=BAD[name])


CLI_CASES = [
    (["witness", "--n", "2", "--etas", "1.0"], 0),
    (["witness", "--n", "2", "--q", "-0.0", "--etas", "-0.0"], 0),
    (["witness", "--n", "1", "--etas", "0.5"], 2),
    (["witness", "--n", "2.0", "--etas", "0.5"], 2),
    (["witness", "--n", "2", "--etas", ABOVE_ONE], 2),
    (["witness", "--n", "2", "--etas", BELOW_ZERO], 2),
    (["witness", "--n", "2", "--etas", "nan"], 2),
    (["witness", "--n", "2", "--etas", "inf"], 2),
    (["witness", "--n", "2", "--q", ABOVE_ONE, "--etas", "0.5"], 2),
    (["witness", "--n", "2", "--q", "nan", "--etas", "0.5"], 2),
    (["witness", "--n", "2", "--thetas", "nan"], 2),
    (["chain", "--n", "2", "--q", "0"], 0),
    (["chain", "--n", "1"], 2),
    (["chain", "--n", "True"], 2),
    (["chain", "--n", "2", "--q", BELOW_ZERO], 2),
    (["chain", "--n", "2", "--q", ABOVE_ONE], 2),
    (["chain", "--n", "2", "--q", "nan"], 2),
    (["plan", "--m", "1", "--q", "1"], 0),
    (["plan", "--m", "0", "--q", "1"], 2),
    (["plan", "--m", "1", "--q", ABOVE_ONE], 2),
    (["plan", "--m", "1", "--q", "nan"], 2),
    (["anonymous", "--n", "3", "--optimize"], 0),
    (["anonymous", "--n", "2", "--optimize"], 2),
    (["anonymous", "--n", "1", "--theta", "1.0"], 2),
    (["anonymous", "--n", "2", "--theta", "nan"], 2),
    (["sample", "--fixture", "observer1", "--trials", "1.5"], 2),
    (["sample", "--fixture", "observer1", "--trials", "True"], 2),
    (["sample", "--fixture", "observer1", "--trials", "10", "--seed", "-1"], 2),
    (["sweep", "--mode", "noise", "--n", "2", "--range", "0", "1", "3"], 0),
    (["sweep", "--mode", "noise", "--n", "2", "--range", "0", ABOVE_ONE, "3"], 2),
    (["sweep", "--mode", "noise", "--n", "2", "--range", "nan", "1", "3"], 2),
    (["sweep", "--mode", "noise", "--n", "1", "--range", "0", "1", "3"], 2),
    (["sweep", "--mode", "dimension", "--q", "nan", "--range", "2", "4", "3"], 2),
    (["sweep", "--mode", "anonymous", "--n", "1", "--range", "0.5", "1", "3"], 2),
    (["verify"], 0),
]


@pytest.mark.parametrize("argv, code", CLI_CASES, ids=[" ".join(argv) for argv, _ in CLI_CASES])
def test_each_subcommand_exits_with_its_exact_code(capsys, argv, code):
    assert _exit_code(capsys, argv) == code


HALVES = MarginalTable(n=2, win=np.full((4, 2), 0.5))
MIXED = np.eye(2) / 2  # the n = 3 maximally mixed state
SETTING = UnsharpSetting(n=3, y=1, b=0, eta=0.5)
# (entry point, arguments, whether the call must raise ValueError)
LIBRARY_CASES = [
    (MarginalTable, (np.int64(2), np.full((4, 2), 0.5)), False),
    (MarginalTable, (2.0, np.full((4, 2), 0.5)), True),
    (MarginalTable, (np.float64(2.0), np.full((4, 2), 0.5)), True),
    (MarginalTable, (True, np.full((2, 1), 0.5)), True),
    (MarginalTable, (np.bool_(True), np.full((2, 1), 0.5)), True),
    (MarginalTable, (1, np.full((2, 1), 0.5)), True),
    (MarginalTable, (0, np.zeros((1, 0))), True),
    (sample_counts, (HALVES, np.int64(10), SEED), False),
    (sample_counts, (HALVES, np.uint8(10), SEED), False),
    (sample_counts, (HALVES, 10.0, SEED), True),
    (sample_counts, (HALVES, np.float64(10), SEED), True),
    (sample_counts, (HALVES, True, SEED), True),
    (sample_counts, (HALVES, np.bool_(True), SEED), True),
    # A seed is an integer >= 0: None would draw OS entropy, so the result would not be reproducible.
    (sample_counts, (HALVES, 10, np.int64(SEED)), False),
    (sample_counts, (HALVES, 10, None), True),
    (sample_counts, (HALVES, 10, 1.5), True),
    (sample_counts, (HALVES, 10, "a"), True),
    (sample_counts, (HALVES, 10, True), True),
    (sample_counts, (HALVES, 10, -1), True),
    (run_sequence, (np.int64(2), 1.0, [0.5]), False),
    (run_sequence, (2, -0.0, [-0.0, 1.0]), False),
    (run_sequence, (2.0, 1.0, [0.5]), True),
    (run_sequence, (np.bool_(True), 1.0, [0.5]), True),
    (run_sequence, (2, float(ABOVE_ONE), [0.5]), True),
    (run_sequence, (2, float(BELOW_ZERO), [0.5]), True),
    (run_sequence, (2, np.nan, [0.5]), True),
    (run_sequence, (2, 1.0, [float(ABOVE_ONE)]), True),
    (run_sequence, (2, 1.0, [float(BELOW_ZERO)]), True),
    (run_sequence, (2, 1.0, [np.nan]), True),
    (critical_chain, (np.int64(2), 1.0), False),
    (critical_chain, (np.int32(3), 1.0), False),
    (critical_chain, (True, 1.0), True),
    (critical_chain, (np.bool_(True), 1.0), True),
    (critical_chain, (2.0, 1.0), True),
    (critical_chain, (np.float64(2.0), 1.0), True),
    (critical_chain, (2, float(ABOVE_ONE)), True),
    (critical_chain, (2, float(BELOW_ZERO)), True),
    (critical_chain, (2, np.nan), True),
    # Lists, strings and many-entry arrays where n, q or eta is expected raise ValueError, not TypeError.
    (build_observables, (np.int64(3),), False),
    (build_observables, (np.uint8(3),), False),
    (build_observables, ([3],), True),
    (build_observables, ("3",), True),
    (build_observables, (np.nan,), True),
    (build_observables, (np.float64(3.0),), True),
    (build_observables, (True,), True),
    (build_observables, (np.bool_(True),), True),
    (evolve_average, (MIXED, np.float64(0.5), np.int64(3)), False),
    (evolve_average, (MIXED, True, 3), False),
    (evolve_average, (MIXED, 0.5, [3]), True),
    (evolve_average, (MIXED, 0.5, "3"), True),
    (evolve_average, (MIXED, 0.5, np.float64(3.0)), True),
    (evolve_average, (MIXED, 0.5, True), True),
    (evolve_average, (MIXED, [0.5], 3), True),
    (evolve_average, (MIXED, "0.5", 3), True),
    (evolve_average, (MIXED, np.nan, 3), True),
    (evolve_average, (MIXED, np.array([0.5, 0.5]), 3), True),
    # Every numpy array where q, eta or theta is expected raises ValueError, 0-d and one-entry arrays included.
    (evolve_average, (MIXED, np.array(0.5), 3), True),
    (evolve_average, (np.eye(4) / 4, 0.5, 3), True),  # a 4 x 4 state where n = 3 acts on 2 x 2
    (UnsharpSetting, (np.int64(3), np.int32(2), 1, np.float64(0.5)), False),
    (UnsharpSetting, (3, 1, 0, True), False),
    (UnsharpSetting, (3, 1, 0, [0.5]), True),
    (UnsharpSetting, (3, 1, 0, "0.5"), True),
    (UnsharpSetting, (3, 1, 0, np.nan), True),
    (UnsharpSetting, (3, "1", 0, 0.5), True),
    (UnsharpSetting, (3, True, 0, 0.5), True),
    (UnsharpSetting, (3, 1, 0, np.array(0.5)), True),
    # the setting of marginal_probability(MIXED, UnsharpSetting(3, 1, 0, np.array([0.5]))) is refused as it is made
    (UnsharpSetting, (3, 1, 0, np.array([0.5])), True),
    (marginal_probability, ([[1, 0], [0, 0]], SETTING), False),
    (marginal_probability, ([[True, False], [False, False]], SETTING), False),
    (marginal_probability, ("0.5", SETTING), True),
    (marginal_probability, ([[np.nan, 0], [0, 0]], SETTING), True),
    (marginal_probability, (np.eye(4) / 4, SETTING), True),
    (marginal_probability, ([[[1, 0], [0, 0]]], SETTING), True),  # a stack of one state
    (build_preparation, (np.int64(3), "010", np.float64(0.5)), False),
    (build_preparation, (3, "010", True), False),
    (build_preparation, (3, "010", [0.5]), True),
    (build_preparation, (3, "010", "0.5"), True),
    (build_preparation, (3, "010", np.nan), True),
    (build_preparation, ("3", "010", 0.5), True),
    (build_preparation, (3, ["0", "1", "0"], 0.5), True),
    (build_ensemble, (np.int64(3), np.float64(0.5)), False),
    (build_ensemble, (3, True), False),
    (build_ensemble, (3, "0.5"), True),
    (build_ensemble, (3, [0.5]), True),
    (build_ensemble, (3, np.nan), True),
    (build_ensemble, ([3], 0.5), True),
    (build_ensemble, (3.0, 0.5), True),
    (visibility_chain, (np.int64(3), np.float64(0.5), [np.float64(0.5)]), False),
    (visibility_chain, (3, True, [True]), False),
    (visibility_chain, (3, [0.5], [0.5]), True),
    (visibility_chain, (3, "0.5", [0.5]), True),
    (visibility_chain, (3, 0.5, ["0.5"]), True),
    (visibility_chain, (3, 0.5, [[0.5]]), True),
    (visibility_chain, (3, 0.5, [np.nan]), True),
    (visibility_chain, ("3", 0.5, [0.5]), True),
    (visibility_chain, (3, np.array(0.5), [0.5]), True),
    (run_sequence, (2, 1.0, ["0.5"]), True),
    (run_sequence, (2, 1.0, [[0.5]]), True),
    (run_sequence, (2, 1.0, [np.array(0.5)]), True),
    (theta_to_eta, (np.float64(0.5),), False),
    (theta_to_eta, (1,), False),
    (theta_to_eta, ("0.5",), True),
    (theta_to_eta, ([0.5],), True),
    (theta_to_eta, (None,), True),
    (theta_to_eta, (np.array([0.5]),), True),
    (theta_to_eta, (np.array(0.5),), True),
    (theta_to_eta, (float("inf"),), True),
    (theta_to_eta, (np.nan,), True),
    (closed_form_witness, (np.int64(3), np.float64(0.5), True), False),
    (closed_form_witness, (3, 2.0, 0.5), True),
    (closed_form_witness, (3.5, 1.0, 1.0), True),
    (closed_form_witness, (3, np.nan, 0.5), True),
    (closed_form_witness, (3, np.array(0.5), 0.5), True),
    (closed_form_witness, (0, 1, 0.5), True),
    (closed_form_witness, ("3", 1.0, 1.0), True),
    (closed_form_witness, (3, 0.5, float(ABOVE_ONE)), True),
    (anonymous_chain_length, (np.int64(3), np.float64(1.0)), False),
    # theta = 1.0 clears n = 3's threshold sin(theta) >= 1/sqrt(3): only its type is refused
    (anonymous_chain_length, (3, "1.0"), True),
    (anonymous_chain_length, (3, [1.0]), True),
    (anonymous_chain_length, (3, np.array(1.0)), True),
    (anonymous_optimum, (np.int64(10),), False),
    (anonymous_optimum, (2,), True),
    (anonymous_optimum, (3.0,), True),
    (anonymous_optimum, (True,), True),
    (anonymous_optimum, (2**53 + 1,), True),
    (anonymous_optimum, ("10",), True),
    (anonymous_optimum, (None,), True),
    (quality_factor, (np.int64(3), np.float64(0.5)), False),
    (quality_factor, (3, True), False),
    (quality_factor, (3, "0.5"), True),
    (quality_factor, (3, [0.5]), True),
    (quality_factor, (3, np.nan), True),
    (quality_factor, (3.0, 0.5), True),
    (quality_factor, (np.bool_(True), 0.5), True),
    (min_dimension_parameter, (np.int64(2), np.float64(1.0)), False),
    (min_dimension_parameter, (2, True), False),
    (min_dimension_parameter, (2, "1"), True),
    (min_dimension_parameter, (2, [1.0]), True),
    (min_dimension_parameter, (2, np.nan), True),
    (min_dimension_parameter, (2, 0.0), True),
]


def _omitted_from_id(arg) -> bool:
    return isinstance(arg, MarginalTable) or isinstance(arg, np.ndarray) and arg.size != 1


@pytest.mark.parametrize(
    "call, args, raises",
    LIBRARY_CASES,
    ids=[
        # A one-entry array stands where a scalar is expected, so the id shows it; states and tables it omits.
        f"{call.__name__}({', '.join(repr(a) for a in args if not _omitted_from_id(a))})"
        for call, args, _ in LIBRARY_CASES
    ],
)
def test_each_entry_point_returns_or_raises_value_error(call, args, raises):
    if raises:
        with pytest.raises(ValueError):
            _timed(call, *args)
    else:
        _timed(call, *args)


@pytest.mark.parametrize("name", [name for name in VALID if name.startswith("n2")])
def test_enforce_equivalences_of_a_valid_array_meets_every_parity(name):
    for n in (2, np.int64(2)):
        result = _timed(enforce_equivalences, MarginalTable(n=n, win=VALID[name]))
        assert result.status == "optimal"
        assert parity_residual(result.post_table, 2) <= PARITY_RESIDUAL_TOL
