import time

import numpy as np
import pytest

from seqcontext import ensembles, equivalence_lp
from seqcontext.cli import fixture_path
from seqcontext.equivalence_lp import (
    WeightMatrix,
    closeness,
    enforce_equivalences,
    normalized_closeness,
    parity_residual,
    winning_to_outcome,
)
from seqcontext.sequence import MarginalTable, read_marginal_csv, run_sequence, witness
from seqcontext.simplex import LinearProgramResult

MAX_WITNESS_3 = 0.7886751345948129

# means of the bundled recorded tables, frozen as exact 4-decimal sums / 24
A_PRE = {"observer1": 0.6869375, "observer2": 0.6749458333333332, "observer3": 0.6806875}
PUBLISHED_POST = {"observer1": 0.683, "observer2": 0.670, "observer3": 0.677}
PUBLISHED_F = {"observer1": 0.9690, "observer2": 0.9537, "observer3": 0.9700}


def table_from_rows(rows, n=2):
    return MarginalTable(n=n, win=np.asarray(rows, dtype=float))


def test_winning_to_outcome_keeps_zero_bits():
    table = read_marginal_csv(fixture_path("observer1"))
    p0 = winning_to_outcome(table.win)
    # row 000: bits all zero, winning probability is already p(b=0)
    np.testing.assert_allclose(p0[0], table.win[0], atol=0)


def test_winning_to_outcome_flips_one_bits():
    win = np.full((4, 2), 0.5)
    win[int("10", 2), 0] = 0.6911
    p0 = winning_to_outcome(win)
    assert p0[int("10", 2), 0] == pytest.approx(1.0 - 0.6911)


def test_winning_to_outcome_fixed_point_at_half():
    win = np.full((8, 3), 0.5)
    np.testing.assert_allclose(winning_to_outcome(win), 0.5, atol=0)


def test_conversion_round_trip():
    # the conversion is its own inverse
    rng = np.random.default_rng(9)
    win = rng.uniform(0.0, 1.0, size=(8, 3))
    np.testing.assert_allclose(winning_to_outcome(winning_to_outcome(win)), win, atol=0)


def test_winning_to_outcome_at_n16_stays_fast():
    # Only n sign rows are built, not the 2^n x 2^n Hadamard matrix (32 GiB at n = 16).
    n = 16
    win = np.full((2**n, n), 0.25)
    start = time.perf_counter()
    p0 = winning_to_outcome(win)
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(p0[1], [0.25] * (n - 1) + [0.75])
    assert np.array_equal(p0[-1], [0.75] * n)


def test_closeness_extremes():
    identity_w = WeightMatrix(n=3, omega=np.eye(8))
    assert closeness(identity_w) == pytest.approx(8.0)
    assert normalized_closeness(identity_w) == pytest.approx(1.0)
    uniform_w = WeightMatrix(n=3, omega=np.full((8, 8), 1.0 / 8.0))
    assert closeness(uniform_w) == pytest.approx(1.0)
    assert normalized_closeness(uniform_w) == pytest.approx(1.0 / 8.0)


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        WeightMatrix(n=2, omega=np.full((4, 4), 0.3))  # rows sum to 1.2
    with pytest.raises(ValueError):
        WeightMatrix(n=2, omega=-np.eye(4))


def test_ideal_table_needs_no_correction():
    ideal = run_sequence(3, 1.0, [1.0])[0]
    result = enforce_equivalences(ideal)
    assert result.status == "optimal"
    assert result.a_post == pytest.approx(MAX_WITNESS_3, abs=1e-9)
    assert result.closeness_normalized == pytest.approx(1.0, abs=1e-9)
    assert result.max_parity_residual <= 1e-8


def test_idempotence_on_compliant_noisy_table():
    table = run_sequence(3, 0.8, [0.6441])[0]
    result = enforce_equivalences(table)
    assert result.a_post >= witness(table) - 1e-9


@pytest.mark.parametrize("name", ["observer1", "observer2", "observer3"])
def test_recorded_tables_reproduce_published_analysis(name):
    table = read_marginal_csv(fixture_path(name))
    assert witness(table) == pytest.approx(A_PRE[name], abs=1e-12)
    result = enforce_equivalences(table)
    assert result.status == "optimal"
    assert result.a_post == pytest.approx(PUBLISHED_POST[name], abs=0.003)
    assert result.closeness_normalized == pytest.approx(PUBLISHED_F[name], abs=0.003)
    assert result.a_post <= result.a_pre
    assert result.max_parity_residual <= 1e-8


def test_post_table_satisfies_constraints_columnwise():
    table = read_marginal_csv(fixture_path("observer1"))
    result = enforce_equivalences(table)
    assert parity_residual(result.post_table, 3) <= 1e-8


def test_never_infeasible_on_scrambled_data():
    rng = np.random.default_rng(77)
    for _ in range(3):
        win = rng.uniform(0.0, 1.0, size=(8, 3))
        result = enforce_equivalences(table_from_rows(win, n=3))
        assert result.status == "optimal"
        assert result.max_parity_residual <= 1e-8


def test_two_setting_instance():
    # n=2 has a single parity constraint (r=11); exercises the small-LP path
    rng = np.random.default_rng(13)
    win = rng.uniform(0.2, 0.8, size=(4, 2))
    result = enforce_equivalences(table_from_rows(win))
    assert result.status == "optimal"
    assert parity_residual(result.post_table, 2) <= 1e-8


def test_four_setting_instance():
    # 256 weight variables, 11 parity strings x 4 columns of constraints.
    # On scrambled data the remix may raise the witness (rows get reassigned
    # to better-aligned mixtures); only the constraints and bounds are pinned.
    rng = np.random.default_rng(21)
    win = rng.uniform(0.3, 0.9, size=(16, 4))
    result = enforce_equivalences(table_from_rows(win, n=4))
    assert result.status == "optimal"
    assert result.max_parity_residual <= 1e-8
    assert 0.0 <= result.a_post <= 1.0
    assert 0.0 <= result.closeness_normalized <= 1.0


def test_tie_break_prefers_identity_like_weights():
    ideal = run_sequence(3, 1.0, [0.6441])[0]
    result = enforce_equivalences(ideal)
    assert result.closeness_normalized == pytest.approx(1.0, abs=1e-9)


def infeasible_on_call(monkeypatch, failing_call):
    """Make call number ``failing_call`` of solve_lp report infeasible; return every call's result."""
    real = equivalence_lp.solve_lp
    results = []

    def wrapper(*args):
        if len(results) + 1 == failing_call:
            result = LinearProgramResult(status="infeasible", x=None, objective=None, residual=None)
        else:
            result = real(*args)
        results.append(result)
        return result

    monkeypatch.setattr(equivalence_lp, "solve_lp", wrapper)
    return results


def test_primary_failure_returns_status_without_solution(monkeypatch):
    table = read_marginal_csv(fixture_path("observer1"))
    results = infeasible_on_call(monkeypatch, 1)
    result = enforce_equivalences(table)
    assert len(results) == 1
    assert result.status == "infeasible"
    assert result.a_pre == pytest.approx(A_PRE["observer1"], abs=1e-12)
    assert result.a_post is None and result.omega is None and result.post_table is None


def test_tie_break_failure_keeps_primary_solution(monkeypatch):
    table = read_marginal_csv(fixture_path("observer1"))
    results = infeasible_on_call(monkeypatch, 2)
    result = enforce_equivalences(table)
    assert [r.status for r in results] == ["optimal", "infeasible"]
    assert result.status == "optimal"
    np.testing.assert_array_equal(result.omega.omega, results[0].x.reshape(8, 8))


def test_json_dict_shape():
    result = enforce_equivalences(read_marginal_csv(fixture_path("observer2")))
    payload = result.to_json_dict()
    assert set(payload) == {"a_pre", "a_post", "F_raw", "F_normalized", "status", "residuals", "omega"}
    assert payload["status"] == "optimal"
    assert len(payload["omega"]) == 8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_build_program_matches_kron_rows(n):
    size = 2**n
    p0 = np.random.default_rng(n).uniform(0.0, 1.0, size=(size, n))
    signs = ensembles.constraint_signs(n)
    expected = [np.kron(np.eye(size)[x], np.ones(size)) for x in range(size)]
    expected += [np.kron(signs[r], p0[:, y]) for r in range(signs.shape[0]) for y in range(n)]
    _, rows, rhs = equivalence_lp._build_program(p0, n)
    assert np.array_equal(rows, np.array(expected))
    assert np.array_equal(rhs, np.r_[np.ones(size), np.zeros(len(expected) - size)])


def test_tables_above_max_lp_n_are_refused_before_any_work(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a table above MAX_LP_N reached the program")

    monkeypatch.setattr(equivalence_lp, "winning_to_outcome", unreachable)
    monkeypatch.setattr(equivalence_lp, "_build_program", unreachable)
    n = equivalence_lp.MAX_LP_N + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_LP_N"):
        enforce_equivalences(MarginalTable(n=n, win=np.full((2**n, n), 0.5)))
    assert time.perf_counter() - start < 1.0
