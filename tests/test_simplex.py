import itertools

import numpy as np
import pytest

from seqcontext import simplex
from seqcontext.cli import fixture_path
from seqcontext.equivalence_lp import _build_program, winning_to_outcome
from seqcontext.selfcheck import enumerate_vertex_optimum
from seqcontext.sequence import read_marginal_csv
from seqcontext.simplex import solve_lp


def test_trivial_maximum():
    result = solve_lp([1.0, 0.0], [[1.0, 1.0]], [1.0])
    assert result.status == "optimal"
    np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-12)
    assert result.objective == pytest.approx(1.0)
    assert result.residual <= 1e-9


def test_degenerate_tie_has_unique_objective():
    # both vertices (1,0) and (0,1) are optimal; the pivot rule must settle on one
    first = solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
    second = solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
    assert first.status == "optimal"
    assert first.objective == pytest.approx(1.0)
    np.testing.assert_array_equal(first.x, second.x)  # deterministic


def test_infeasible():
    result = solve_lp([1.0, 0.0], [[1.0, 1.0]], [-1.0])
    assert result.status == "infeasible"
    assert result.x is None


def test_unbounded():
    result = solve_lp([1.0, 0.0], [[0.0, 1.0]], [1.0])
    assert result.status == "unbounded"


def test_redundant_rows_are_dropped():
    result = solve_lp([2.0, 1.0, 0.0], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], [1.0, 2.0])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(2.0)


def test_negative_rhs_normalization():
    # -x1 - x2 = -1 is the simplex x1 + x2 = 1
    result = solve_lp([0.0, 1.0], [[-1.0, -1.0]], [-1.0])
    assert result.status == "optimal"
    assert result.objective == pytest.approx(1.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp([1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])


@pytest.mark.parametrize("rhs", [0.0, 1.0], ids=["feasible-rhs", "infeasible-rhs"])
def test_a_program_without_variables_is_refused_up_front(rhs):
    # Not numpy's empty-argmax error for b = 0, nor an "infeasible" status for b = 1.
    with pytest.raises(ValueError, match="non-empty vector.*needs a variable"):
        solve_lp([], np.zeros((1, 0)), [rhs])


def _oracle_programs(seed, count):
    """Programs built the way check_lp_oracle builds its instances."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nvar = int(rng.integers(3, 7))
        extra = int(rng.integers(0, 3))
        feasible = rng.uniform(0.0, 1.0, size=nvar)
        feasible[rng.random(nvar) < 0.3] = 0.0
        if feasible.sum() == 0.0:
            feasible[0] = 1.0
        a = np.vstack([np.ones(nvar)] + [rng.normal(size=nvar) for _ in range(extra)])
        yield rng.normal(size=nvar), a, a @ feasible


# The optimal basis of this program, columns {0, 1}, has condition number about 2e4 and gives 0.5; the other
# feasible vertex gives 0.
ILL_CONDITIONED = ([0.0, 1.0, 0.0], [[1.0, 1.0, 1.0], [0.0, 1e-4, 1.0]], [1.0, 5e-5])


def test_matches_vertex_enumeration_on_random_bounded_instances():
    for c, a, b in [*_oracle_programs(123, 60), ILL_CONDITIONED]:
        result = solve_lp(c, a, b)
        ok, best = enumerate_vertex_optimum(c, a, b)
        assert ok and result.status == "optimal"
        assert result.objective == pytest.approx(best, abs=1e-9)
        assert result.residual <= 1e-9
    assert enumerate_vertex_optimum(*ILL_CONDITIONED)[1] == pytest.approx(0.5, abs=1e-12)


def _screened_vertex_optimum(c, a_eq, b_eq):
    # The oracle as it was with a stacked matrix_rank screen ahead of the solves, kept as its reference.
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b = np.asarray(b_eq, dtype=float).reshape(-1)
    rank = np.linalg.matrix_rank(a)
    combos = np.array(list(itertools.combinations(range(c.size), rank)), dtype=int)
    full = np.linalg.matrix_rank(a[:, combos].transpose(1, 0, 2)) == rank
    best = None
    for cols in combos[full]:
        xs, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        x = np.zeros(c.size)
        x[cols] = xs
        if np.min(xs) < -1e-9 or np.max(np.abs(a @ x - b)) > 1e-9:
            continue
        value = float(c @ x)
        if best is None or value > best:
            best = value
    return best is not None, best


def _degenerate_programs(seed, count):
    """A duplicated column and a row proportional to another, so some column choices are singular."""
    for c, a, b in _oracle_programs(seed, count):
        a = np.hstack([a, a[:, :1]])
        c = np.append(c, c[0])
        a = np.vstack([a, 2.5 * a[-1]])
        yield c, a, np.append(b, 2.5 * b[-1])


@pytest.mark.parametrize("seed", range(8))
def test_vertex_oracle_decides_each_basis_as_the_stacked_screen_did(seed):
    for c, a, b in [*_oracle_programs(seed, 40), *_degenerate_programs(1000 + seed, 25)]:
        assert enumerate_vertex_optimum(c, a, b) == _screened_vertex_optimum(c, a, b)


def test_vertex_oracle_refuses_a_rank_zero_program():
    with pytest.raises(ValueError):
        enumerate_vertex_optimum([1.0, 2.0], [[0.0, 0.0]], [0.0])


def test_degenerate_vertex_stack():
    # heavy degeneracy: many basic variables pinned to zero
    a = np.array(
        [
            [1.0, 1.0, 1.0, 1.0, 0.0],
            [1.0, -1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0, 0.0],
        ]
    )
    b = np.array([1.0, 0.0, 0.0])
    c = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    result = solve_lp(c, a, b)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(1.0)
    assert result.residual <= 1e-9


def _scalar_pivot_row(tableau, basis, col):
    # The row-by-row ratio test that _choose_pivot_row replaced, kept here as its oracle.
    for threshold in (simplex._PREFERRED_PIVOT, simplex._PIVOT_TOL):
        leave = -1
        best_ratio = np.inf
        for i in range(tableau.shape[0]):
            coeff = tableau[i, col]
            if coeff > threshold:
                ratio = max(tableau[i, -1], 0.0) / coeff
                if ratio < best_ratio - simplex._RATIO_TIE_TOL or (
                    abs(ratio - best_ratio) <= simplex._RATIO_TIE_TOL and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave >= 0:
            return leave
    return -1


def test_pivot_row_matches_the_scalar_ratio_test():
    rng = np.random.default_rng(20261018)
    kinds = {"preferred": 0, "small-only": 0, "none": 0, "tie": 0}  # "tie": ratios within 1e-12 but unequal
    for _ in range(400):
        m = int(rng.integers(1, 12))
        # coefficients and right-hand sides from small grids give exact ratio ties; the
        # jitter splits some of them by less than the 1e-12 tie tolerance, some by more
        coeffs = rng.choice([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0], size=(m, 4))
        coeffs[:, 1] = rng.choice([-1e-8, 0.0, 5e-10, 2e-8, 9e-8], size=m)  # nothing above _PREFERRED_PIVOT
        coeffs[:, 2] = rng.choice([-1.0, -0.0, 0.0, 1e-11, 1e-10], size=m)  # nothing above _PIVOT_TOL
        coeffs[:, 3] = rng.choice([-1.0, 2e-9, 5e-8, 0.5, 1.0], size=m)  # preferred rows beat smaller ratios
        rhs = rng.choice([-1.0, -1e-12, -0.0, 0.0, 0.5, 1.0], size=m)
        rhs += rng.choice([0.0, 0.0, 3e-13, -4e-13, 5e-12], size=m)
        tableau = np.column_stack([coeffs, rhs])
        basis = rng.permutation(40)[:m].tolist()
        for col in range(coeffs.shape[1]):
            expected = _scalar_pivot_row(tableau, basis, col)
            assert simplex._choose_pivot_row(tableau, basis, col) == expected
            if expected < 0:
                kinds["none"] += 1
            elif tableau[expected, col] > simplex._PREFERRED_PIVOT:
                kinds["preferred"] += 1
                rows = tableau[:, col] > simplex._PREFERRED_PIVOT
                ratios = np.maximum(tableau[rows, -1], 0.0) / tableau[rows, col]
                gaps = np.abs(ratios - ratios.min())
                kinds["tie"] += int(np.any((gaps > 0.0) & (gaps <= simplex._RATIO_TIE_TOL)))
            else:
                kinds["small-only"] += 1
    assert min(kinds.values()) > 20, kinds


def test_counters_of_small_programs():
    trivial = solve_lp([1.0, 0.0], [[1.0, 1.0]], [1.0])
    # one phase-1 pivot, then the fresh solve that confirms its optimum; phase 2 starts optimal
    assert (trivial.pivots, trivial.degenerate_pivots, trivial.reinversions, trivial.max_drift) == ((1, 0), 0, 1, 0.0)
    infeasible = solve_lp([1.0, 0.0], [[1.0, 1.0]], [-1.0])
    assert (infeasible.pivots, infeasible.degenerate_pivots, infeasible.reinversions) == ((0, 0), 0, 0)
    a = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0, 0.0]])
    stack = solve_lp([1.0, 1.0, 1.0, 1.0, -1.0], a, [1.0, 0.0, 0.0])
    assert stack.pivots == (3, 0) and stack.degenerate_pivots == 2  # two rows start at 0


def test_counters_are_deterministic_and_bounded_on_a_fixture_program():
    table = read_marginal_csv(fixture_path("observer1"))
    program = _build_program(winning_to_outcome(table.win), table.n)
    first, second = solve_lp(*program), solve_lp(*program)
    counters = (first.pivots, first.degenerate_pivots, first.reinversions, first.max_drift)
    assert counters == (second.pivots, second.degenerate_pivots, second.reinversions, second.max_drift)
    assert min(first.pivots) > 0 and first.degenerate_pivots <= sum(first.pivots)
    assert first.reinversions >= sum(first.pivots) // 60  # one per 60 pivots at least
    # entries reach about 1.5e3 in this solve; the drift stays near 1e-9 of that
    assert 0.0 < first.max_drift < 1e-5


def test_counters_default_for_results_built_without_them():
    result = simplex.LinearProgramResult(status="infeasible", x=None, objective=None, residual=None)
    assert (result.pivots, result.degenerate_pivots, result.reinversions, result.max_drift) == ((0, 0), 0, 0, 0.0)
