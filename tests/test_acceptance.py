"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import pytest

from seqcontext.cli import dispatch, fixture_path
from seqcontext.equivalence_lp import enforce_equivalences
from seqcontext.planner import anonymous_optimum, critical_chain
from seqcontext.selfcheck import check_sandwich, check_visibility_lemma
from seqcontext.sequence import closed_form_witness, read_marginal_csv, run_sequence, visibility_chain, witness


@contextmanager
def criterion(number: int, label: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    note = f" [{elapsed:.2f}s]" if budget_seconds is not None else ""
    print(f"ACCEPTANCE {number:2d} PASS  {label}{note}")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds {budget_seconds}s budget"


def test_criterion_1_maximal_witness():
    with criterion(1, "single sharp observer attains (1 + 1/sqrt(n))/2 for n=2..6", 1.0):
        for n in range(2, 7):
            table = run_sequence(n, 1.0, [1.0])[0]
            assert witness(table) == pytest.approx(0.5 * (1 + 1 / math.sqrt(n)), abs=1e-9)


def test_criterion_2_visibility_recursion_oracle():
    with criterion(2, "evolved average states match the visibility recursion (20 draws per n)", 30.0):
        result = check_visibility_lemma(seed=2024, draws_per_n=20, tol=1e-9)
        assert result.ok, result.detail


def test_criterion_3_exactly_n_sharing():
    with criterion(3, "critical chain serves exactly n observers at q=1 for n=2..12", 1.0):
        for n in range(2, 13):
            report = critical_chain(n, 1.0)
            assert report.violations == n
            assert report.next_required_eta > 1.0


def test_criterion_4_squared_visibility_sandwich():
    # The two bounds appear transposed in some statements of this property;
    # the derivation fixes the orientation used here:
    # (n-1)/n^2 < v_k^2 - v_{k+1}^2 < 1/n, strictly, at every critical step.
    with criterion(4, "squared-visibility drop strictly between (n-1)/n^2 and 1/n"):
        result = check_sandwich(n_max=12, margin=1e-12)
        assert result.ok, result.detail


def test_criterion_5_experimental_ideal_values():
    with criterion(5, "sharpness chain [0.6441, 0.7637, 1.0] yields 0.6859 for all three observers", 1.0):
        etas = [0.6441, 0.7637, 1.0]
        plan = visibility_chain(3, 1.0, etas)
        tables = run_sequence(3, 1.0, etas)
        for k in range(3):
            assert plan.witnesses[k] == pytest.approx(0.6859, abs=5e-5)
            assert witness(tables[k]) == pytest.approx(0.6859, abs=5e-5)
            assert witness(tables[k]) == pytest.approx(
                closed_form_witness(3, plan.visibilities[k], etas[k]), abs=1e-9
            )


def test_criterion_6_recorded_table_means():
    with criterion(6, "recorded tables average to 0.687 / 0.675 / 0.681"):
        expected = {"observer1": 0.687, "observer2": 0.675, "observer3": 0.681}
        for name, target in expected.items():
            table = read_marginal_csv(fixture_path(name))
            assert witness(table) == pytest.approx(target, abs=1e-3)


def test_criterion_7_lp_reproduction():
    with criterion(7, "LP post-processing reproduces 0.683/0.670/0.677 and F 0.9690/0.9537/0.9700", 5.0):
        expected = {
            "observer1": (0.683, 0.9690),
            "observer2": (0.670, 0.9537),
            "observer3": (0.677, 0.9700),
        }
        for name, (a_post, f_normalized) in expected.items():
            result = enforce_equivalences(read_marginal_csv(fixture_path(name)))
            assert result.status == "optimal"
            assert result.a_post == pytest.approx(a_post, abs=0.003)
            assert result.closeness_normalized == pytest.approx(f_normalized, abs=0.003)


def test_criterion_8_anonymous_scaling():
    with criterion(8, "anonymous-setting optimum scales like n/e at n=100, 300, 1000", 1.0):
        windows = {100: (0.90, 1.15), 300: (0.93, 1.10), 1000: (0.95, 1.05)}
        for n, (lo, hi) in windows.items():
            ratio = anonymous_optimum(n).k_star / (n / math.e)
            assert lo <= ratio <= hi


def test_criterion_9_noise_robust_planning():
    with criterion(9, "smallest n for two observers at q=0.5 is 8; the ceil(m/q)=4 bound falls short"):
        from seqcontext.planner import max_shared_observers, min_dimension_parameter

        plan = min_dimension_parameter(2, 0.5)
        assert plan.n == 8
        assert plan.bound_from_q == 4
        assert not plan.bound_from_q_sufficient
        # exhaustive oracle over the candidate range
        for n in range(2, 8):
            assert max_shared_observers(n, 0.5) < 2
        assert max_shared_observers(8, 0.5) >= 2


def test_criterion_10_property_suite_and_verify(capsys):
    with criterion(10, "cross-check suite passes and the verify command exits 0", 60.0):
        code = dispatch(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert '"all_ok": true' in out
