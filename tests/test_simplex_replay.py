"""Replay of the simplex against a copy of its earlier pivot loop.

The loop below is the solver as it was before the reduced costs moved into the tableau's
last row: a separate reduced-cost vector updated after each pivot, [W | b] stacked at
every reinversion, and a ratio test over numpy masks. The current solver must make the
same pivots (the same basis after every one) and return the same bytes, or raise the
same message, on the programs the package solves. A deliberate change of pivot rule
replaces this test.
"""

import numpy as np
import pytest

from seqcontext import equivalence_lp, selfcheck, simplex
from seqcontext.cli import fixture_path
from seqcontext.sampling import sample_counts
from seqcontext.sequence import read_marginal_csv, run_sequence

_REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PREFERRED_PIVOT = 1e-7
_RATIO_TIE_TOL = 1e-12
_FEASIBILITY_TOL = 1e-9
_REFRESH_INTERVAL = 60
_MAX_PIVOTS = 200_000


def _old_refreshed_tableau(w, b, basis):
    full = np.hstack([w, b[:, None]])
    try:
        return np.linalg.solve(w[:, basis], full)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(w[:, basis], full, rcond=None)[0]


def _old_reduced_costs(c, tableau, basis):
    return c[basis] @ tableau[:, :-1] - c


def _old_choose_pivot_row(tableau, basis, col):
    coeffs = tableau[:, col]
    for threshold in (_PREFERRED_PIVOT, _PIVOT_TOL):
        rows = (coeffs > threshold).nonzero()[0]
        leave, best_ratio = -1, np.inf
        for i, ratio in zip(rows.tolist(), (np.maximum(tableau[rows, -1], 0.0) / coeffs[rows]).tolist()):
            if ratio < best_ratio - _RATIO_TIE_TOL or (
                abs(ratio - best_ratio) <= _RATIO_TIE_TOL and (leave < 0 or basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
        if leave >= 0:
            return leave
    return -1


def _old_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= column[:, None] * tableau[row]
    basis[row] = col


def _old_maximize(w, b, c, basis):
    pivots = 0
    while pivots <= _MAX_PIVOTS:
        tableau = _old_refreshed_tableau(w, b, basis)
        reduced = _old_reduced_costs(c, tableau, basis)
        moved = False
        for _ in range(_REFRESH_INTERVAL):
            entering = (reduced < -_REDUCED_COST_TOL).nonzero()[0]
            if not entering.size:
                if not moved:
                    return "optimal", tableau
                break
            enter = int(entering[0])
            leave = _old_choose_pivot_row(tableau, basis, enter)
            if leave < 0:
                fresh = _old_refreshed_tableau(w, b, basis)
                if np.all(fresh[:, enter] <= _PIVOT_TOL):
                    return "unbounded", fresh
                tableau = fresh
                reduced = _old_reduced_costs(c, tableau, basis)
                continue
            _old_pivot(tableau, basis, leave, enter)
            reduced = reduced - reduced[enter] * tableau[leave, :-1]
            pivots += 1
            moved = True
    raise RuntimeError("simplex failed to terminate; pivot tolerance breakdown")


def _old_solve_lp(objective, a_eq, b_eq):
    c = np.asarray(objective, dtype=float)
    a_orig = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_orig = np.asarray(b_eq, dtype=float).reshape(-1)
    a = a_orig.copy()
    b = b_orig.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    m, nvar = a.shape
    w1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(nvar), -np.ones(m)])
    basis = list(range(nvar, nvar + m))
    status, tableau = _old_maximize(w1, b, c1, basis)
    value = float(c1[basis] @ tableau[:, -1])
    if status != "optimal" or value < -_FEASIBILITY_TOL:
        return simplex.LinearProgramResult(status="infeasible", x=None, objective=None, residual=None)
    keep_rows = []
    for i in range(m):
        if basis[i] >= nvar:
            candidates = (np.abs(tableau[i, :nvar]) > _PREFERRED_PIVOT).nonzero()[0]
            if not candidates.size:
                continue
            _old_pivot(tableau, basis, i, int(candidates[0]))
        keep_rows.append(i)
    a2 = a[keep_rows]
    b2 = b[keep_rows]
    basis = [basis[i] for i in keep_rows]
    status, tableau = _old_maximize(a2, b2, c, basis)
    if status == "unbounded":
        return simplex.LinearProgramResult(status="unbounded", x=None, objective=None, residual=None)
    x = np.zeros(nvar)
    x[basis] = tableau[:, -1]
    if x.min() < -1e-7:
        raise RuntimeError(f"simplex basis became infeasible (min entry {x.min():.3e})")
    x[x < 0] = 0.0
    residual = float(np.max(np.abs(a_orig @ x - b_orig))) if m else 0.0
    if residual > _FEASIBILITY_TOL:
        raise RuntimeError(f"simplex produced residual {residual:.3e} above {_FEASIBILITY_TOL}")
    return simplex.LinearProgramResult(status="optimal", x=x, objective=float(c @ x), residual=residual)


def _replayed(solve, namespace, pivot_name, program, monkeypatch):
    """(outcome, basis after every pivot, result) of one solve; the outcome keeps x as bytes."""
    pivot = namespace[pivot_name]
    bases = []

    def recording(tableau, basis, row, col):
        pivot(tableau, basis, row, col)
        bases.append(tuple(basis))

    with monkeypatch.context() as patch:
        patch.setitem(namespace, pivot_name, recording)
        try:
            result = solve(*program)
        except RuntimeError as error:
            return ("raised", str(error)), bases, error
    x = None if result.x is None else result.x.tobytes()
    return (result.status, x, result.objective, result.residual), bases, result


def _same_path(program, monkeypatch):
    """Solve with both loops; assert the same basis after every pivot and the same outcome."""
    before = _replayed(_old_solve_lp, globals(), "_old_pivot", program, monkeypatch)
    after = _replayed(simplex.solve_lp, vars(simplex), "_pivot", program, monkeypatch)
    assert after[1] == before[1]
    assert after[0] == before[0]
    return after


def _replay_calls(run, module, monkeypatch):
    """Run ``run`` with every solve_lp call it makes through ``module`` replayed; the outcomes, in order."""
    outcomes = []

    def replaying(*program):
        outcome, _, result = _same_path(program, monkeypatch)
        outcomes.append(outcome[0])
        if isinstance(result, Exception):
            raise result
        return result

    with monkeypatch.context() as patch:
        patch.setattr(module, "solve_lp", replaying)
        try:
            run()
        except RuntimeError:
            pass  # the raising solve was replayed first
    return outcomes


def _replay_table(table, monkeypatch):
    return _replay_calls(lambda: equivalence_lp.enforce_equivalences(table), equivalence_lp, monkeypatch)


def _sampled_n3_tables():
    """Tables 3..511 of a seed-1 stream: 32 simulated n = 3 chains, then 509 finite-trial resamples."""
    rng = np.random.default_rng(1)
    chains = []
    for _ in range(32):
        etas = rng.uniform(0.3, 1.0, size=int(rng.integers(1, 5)))
        chains.append(run_sequence(3, float(rng.uniform(0.5, 1.0)), etas))
    tables = {}
    for index in range(3, 512):
        chain = chains[int(rng.integers(len(chains)))]
        source = chain[int(rng.integers(len(chain)))]
        trials = int(10 ** rng.uniform(3.0, 6.0))
        tables[index] = sample_counts(source, trials, int(rng.integers(2**32)))
    return tables


# 288 and 351 raise in their tie-break solve on AVX-512 OpenBLAS kernels; on others they may solve.
SAMPLED = sorted({*range(3, 509, 8), 288, 351})


@pytest.mark.parametrize("name", ["observer1", "observer2", "observer3"])
def test_fixture_solves_replay_the_earlier_pivot_loop(name, monkeypatch):
    # primary and tie-break
    assert _replay_table(read_marginal_csv(fixture_path(name)), monkeypatch) == ["optimal", "optimal"]


def test_lp_oracle_instances_replay_the_earlier_pivot_loop(monkeypatch):
    outcomes = _replay_calls(selfcheck.check_lp_oracle, selfcheck, monkeypatch)
    assert outcomes == ["optimal"] * selfcheck.LP_ORACLE_INSTANCES


def test_sampled_n3_tables_replay_the_earlier_pivot_loop(monkeypatch):
    tables = _sampled_n3_tables()
    outcomes = [outcome for index in SAMPLED for outcome in _replay_table(tables[index], monkeypatch)]
    assert len(outcomes) >= len(SAMPLED) and set(outcomes) <= {"optimal", "raised"}


def test_exact_n4_table_replays_the_earlier_pivot_loop(monkeypatch):
    assert _replay_table(run_sequence(4, 0.95, [0.8])[0], monkeypatch) == ["optimal", "optimal"]


@pytest.mark.parametrize(
    "program",
    [
        ([1.0, 0.0], [[1.0, 1.0]], [-1.0]),  # infeasible
        ([1.0, 0.0], [[0.0, 1.0]], [1.0]),  # unbounded
        ([2.0, 1.0, 0.0], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], [1.0, 2.0]),  # a redundant row
        ([1.0, 1.0, 1.0, 1.0, -1.0], [[1, 1, 1, 1, 0], [1, -1, 0, 0, 0], [0, 0, 1, -1, 0]], [1.0, 0.0, 0.0]),
        ([1.0, 2.0, 3.0], np.zeros((0, 3)), []),  # no rows: unbounded
    ],
)
def test_small_programs_replay_the_earlier_pivot_loop(program, monkeypatch):
    _same_path(program, monkeypatch)
