import math

import numpy as np
import pytest

from seqcontext.planner import (
    MAX_CHAIN_N,
    anonymous_chain_length,
    anonymous_optimum,
    critical_chain,
    max_shared_observers,
    min_dimension_parameter,
)
from seqcontext.sequence import UnsharpSetting, noncontextual_bound, quality_factor, run_sequence, visibility_chain

# frozen from the saturation recursion evaluated independently
CHAIN_3_ETAS = [0.5773502691896258, 0.6578257903063879, 0.7873940415107455]
CHAIN_3_NEXT = 1.0578987364758012
CHAIN_3_VIS = [1.0, 0.8776643872851505, 0.7332418570019706, 0.5457519224505023]
CHAIN_2_ETAS = [0.7071067811865475, 0.8284271247461902]
CHAIN_2_NEXT = 1.0620201129191382
ANON_3_AT_SQRT_E3 = 1.8056852930109977
ANON_100_AT_SQRT_E100 = 37.65470607927525


def test_critical_chain_n3():
    report = critical_chain(3, 1.0)
    np.testing.assert_allclose(report.critical_etas, CHAIN_3_ETAS, atol=1e-12)
    np.testing.assert_allclose(report.visibilities, CHAIN_3_VIS, atol=1e-12)
    assert report.violations == 3
    assert report.next_required_eta == pytest.approx(CHAIN_3_NEXT, abs=1e-12)
    assert report.visibilities[-1] == pytest.approx(CHAIN_3_VIS[-1], abs=1e-12)


def test_critical_chain_n2():
    report = critical_chain(2, 1.0)
    np.testing.assert_allclose(report.critical_etas, CHAIN_2_ETAS, atol=1e-12)
    assert report.violations == 2
    assert report.next_required_eta == pytest.approx(CHAIN_2_NEXT, abs=1e-12)


def test_critical_chain_zero_visibility():
    report = critical_chain(4, 0.0)
    assert report.violations == 0
    assert report.critical_etas == ()
    assert math.isinf(report.next_required_eta)


def test_critical_chain_validation():
    with pytest.raises(ValueError):
        critical_chain(1, 1.0)
    with pytest.raises(ValueError):
        critical_chain(3, 1.5)
    with pytest.raises(ValueError):
        critical_chain(MAX_CHAIN_N + 1, 1.0)
    with pytest.raises(ValueError):
        critical_chain(10**400, 1.0)
    assert critical_chain(MAX_CHAIN_N, 1.0).violations == MAX_CHAIN_N


@pytest.mark.parametrize("n", range(2, 13))
def test_exactly_n_observers_at_unit_visibility(n):
    report = critical_chain(n, 1.0)
    assert report.violations == n
    assert report.next_required_eta > 1.0
    assert all(0.0 < eta <= 1.0 for eta in report.critical_etas)


@pytest.mark.parametrize("n", range(2, 13))
def test_squared_visibility_sandwich(n):
    # each critical step drops v^2 by strictly between (n-1)/n^2 and 1/n
    report = critical_chain(n, 1.0)
    lower = (n - 1) / n**2
    upper = 1.0 / n
    for k in range(report.violations):
        drop = report.visibilities[k] ** 2 - report.visibilities[k + 1] ** 2
        assert drop > lower + 1e-12
        assert drop < upper - 1e-12


def test_max_shared_observers_examples():
    assert max_shared_observers(5, 1.0) == 5
    assert max_shared_observers(2, 1.0) == 2
    assert max_shared_observers(8, 0.5) == 2


def test_max_shared_observers_monotonic_in_n():
    for q in (0.3, 0.6, 1.0):
        counts = [max_shared_observers(n, q) for n in range(2, 11)]
        assert counts == sorted(counts)


def test_max_shared_observers_monotonic_in_q():
    for n in (3, 6, 9):
        counts = [max_shared_observers(n, q) for q in np.linspace(0.05, 1.0, 12)]
        assert counts == sorted(counts)


def test_min_dimension_noise_robust_case():
    plan = min_dimension_parameter(2, 0.5)
    assert plan.n == 8
    assert plan.bound_from_q == 4
    assert not plan.bound_from_q_sufficient  # n=4 serves only one observer at q=0.5
    assert plan.bound_from_q_squared == 8


def test_min_dimension_trivial_cases():
    assert min_dimension_parameter(3, 1.0).n == 3
    assert min_dimension_parameter(1, 1.0).n == 2
    plan = min_dimension_parameter(1, 1.0)
    assert plan.bound_from_q_sufficient


def test_min_dimension_validation():
    with pytest.raises(ValueError):
        min_dimension_parameter(0, 0.5)
    with pytest.raises(ValueError):
        min_dimension_parameter(2, 0.0)


@pytest.mark.parametrize("m,q", [(100, 0.01), (MAX_CHAIN_N + 1, 1.0), (10**400, 1.0), (3, 1e-200)])
def test_min_dimension_refuses_sizes_above_the_chain_limit(m, q):
    with pytest.raises(ValueError, match="limit"):
        min_dimension_parameter(m, q)


def test_min_dimension_at_the_chain_limit():
    assert min_dimension_parameter(MAX_CHAIN_N, 1.0).n == MAX_CHAIN_N


def test_min_dimension_matches_exhaustive_search():
    for m, q in [(1, 0.8), (2, 0.7), (3, 0.9), (2, 0.35)]:
        plan = min_dimension_parameter(m, q)
        assert max_shared_observers(plan.n, q) >= m
        for smaller in range(2, plan.n):
            assert max_shared_observers(smaller, q) < m


def test_anonymous_chain_length_edge_and_frozen_values():
    n = 5
    edge = math.asin(1.0 / math.sqrt(n))
    assert anonymous_chain_length(n, edge) == 1.0
    assert anonymous_chain_length(3, math.asin(math.sqrt(math.e / 3.0))) == pytest.approx(
        ANON_3_AT_SQRT_E3, abs=1e-12
    )
    assert anonymous_chain_length(100, math.asin(math.sqrt(math.e / 100.0))) == pytest.approx(
        ANON_100_AT_SQRT_E100, abs=1e-9
    )


def test_anonymous_chain_length_below_threshold_errors():
    with pytest.raises(ValueError):
        anonymous_chain_length(4, math.asin(0.4))  # threshold is 0.5
    with pytest.raises(ValueError):
        anonymous_chain_length(4, 0.0)


def test_anonymous_optimum_dominates_reference_angle():
    for n in (3, 10, 100):
        opt = anonymous_optimum(n)
        reference = anonymous_chain_length(n, math.asin(math.sqrt(math.e / n)))
        assert opt.k_star >= reference - 1e-9


def test_anonymous_optimum_n100_bracket():
    opt = anonymous_optimum(100)
    assert 100 / math.e <= opt.k_star <= 100 / math.e + 2.0


def test_anonymous_optimum_scaling():
    for n, tol in [(100, 0.10), (1000, 0.05)]:
        opt = anonymous_optimum(n)
        assert opt.k_star / (n / math.e) == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("n", [10**12, 10**15, 2**53])
def test_anonymous_optimum_scaling_at_large_n(n):
    # Near the lower edge of the angle grid cos(theta) is within an ulp of 1 here.
    assert anonymous_optimum(n).k_star * math.e / n == pytest.approx(1.0, abs=1e-3)


def test_anonymous_optimum_validation():
    with pytest.raises(ValueError):
        anonymous_optimum(2)


@pytest.mark.parametrize("n", [2**53 + 1, 10**400])
def test_anonymous_formulas_refuse_n_beyond_exact_floats(n):
    with pytest.raises(ValueError):
        anonymous_optimum(n)
    with pytest.raises(ValueError):
        anonymous_chain_length(n, 1.0)


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(run_sequence, (3.0, 1, [0.5]), id="run_sequence"),
        pytest.param(critical_chain, (3.5, 1), id="critical_chain"),
        pytest.param(quality_factor, (2.5, 0.5), id="quality_factor"),
        pytest.param(visibility_chain, (2.5, 1.0, [0.5]), id="visibility_chain"),
        pytest.param(visibility_chain, (1, 0.5, []), id="visibility_chain-n1"),
        pytest.param(anonymous_chain_length, (2.5, 1.0), id="anonymous_chain_length"),
        pytest.param(anonymous_optimum, (3.5,), id="anonymous_optimum"),
        pytest.param(min_dimension_parameter, (1.5, 1), id="min_dimension_parameter"),
        pytest.param(noncontextual_bound, (0,), id="noncontextual_bound"),
        pytest.param(UnsharpSetting, (3.0, 1, 0, 0.5), id="UnsharpSetting-n"),
        pytest.param(UnsharpSetting, (3, 1.0, 0, 0.5), id="UnsharpSetting-y"),
    ],
)
def test_library_entry_points_refuse_a_non_integer_or_too_small_n(fn, args):
    with pytest.raises(ValueError, match="must be an integer|must be >= 2"):
        fn(*args)


def test_library_entry_points_accept_numpy_integers():
    n = np.int64(3)
    assert critical_chain(n, 1.0) == critical_chain(3, 1.0)
    assert quality_factor(n, 0.5) == quality_factor(3, 0.5)
    assert noncontextual_bound(n) == noncontextual_bound(3)
    assert visibility_chain(n, 0.9, [0.5]) == visibility_chain(3, 0.9, [0.5])
    assert anonymous_chain_length(n, 1.0) == anonymous_chain_length(3, 1.0)
    assert min_dimension_parameter(np.int64(2), 0.5) == min_dimension_parameter(2, 0.5)
    assert UnsharpSetting(n=n, y=np.int64(2), b=0, eta=0.5) == UnsharpSetting(n=3, y=2, b=0, eta=0.5)
    assert np.array_equal(run_sequence(n, 0.9, [0.5])[0].win, run_sequence(3, 0.9, [0.5])[0].win)
