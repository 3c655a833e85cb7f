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
    # visibility_chain bounds n by MAX_FLOAT_N as well, so its n = 1 message gives the range 2..2^53.
    with pytest.raises(ValueError, match=r"must be an integer|must be >= 2|must be in 2\.\."):
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


# Reference planner as a plain scalar scan: every grid angle and every chain step goes through the scalar
# formulas, in the same expressions as the package. The package must give the same bits.
def _bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _scan_chain_length(n, theta):
    numerator = math.log(math.sin(theta)) + 0.5 * math.log(n)
    if numerator <= 0.0:
        return 1.0
    return 1.0 - numerator / math.log1p(-2.0 * (n - 1) / n * math.sin(theta / 2) ** 2)


def _scan_optimum(n):
    lo = math.asin(1.0 / math.sqrt(n)) + 1e-9
    hi = math.pi / 2 - 1e-9
    xs = [lo + (hi - lo) * i / 511 for i in range(512)]
    best = max(range(512), key=lambda i: _scan_chain_length(n, xs[i]))
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, 511)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _scan_chain_length(n, c), _scan_chain_length(n, d)
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _scan_chain_length(n, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _scan_chain_length(n, d)
    mid = 0.5 * (a + b)
    return mid, _scan_chain_length(n, mid)


def _loop_chain(n, q):
    sqrt_n = math.sqrt(n)
    v = float(q)
    etas, visibilities = [], [v]
    while True:
        required = 1.0 / (v * sqrt_n) if v > 0 else math.inf
        if required > 1.0:
            return etas, visibilities, required
        etas.append(required)
        v *= (1.0 + (n - 1) * math.sqrt(1.0 - required * required)) / n
        visibilities.append(v)


SCAN_NS = [
    *range(3, 601),
    *range(601, 3003, 7),
    *(10**e for e in range(4, 16)),
    *(math.floor(1.7**k) for k in range(20, 70)),
    2**53,
]


def test_anonymous_optimum_is_bit_equal_to_the_scalar_scan():
    differ = []
    for n in SCAN_NS:
        opt = anonymous_optimum(n)
        assert type(opt.theta_star) is float and type(opt.k_star) is float
        if _bits([opt.theta_star, opt.k_star]) != _bits(_scan_optimum(n)):
            differ.append(n)
    assert differ == []


@pytest.mark.parametrize("screen_denominator", [-1.0, 1.0], ids=["peak-at-right-edge", "peak-at-left-edge"])
def test_anonymous_optimum_walks_from_a_misplaced_screen_peak(monkeypatch, screen_denominator):
    # A constant in place of the array log1p puts the screen's maximum at one end of the grid, hundreds of points
    # from the true one; the scalar walks must still reach the scan's index, and so its bits.
    monkeypatch.setattr(np, "log1p", lambda x: np.full_like(x, screen_denominator))
    for n in (3, 10, 100, 1000, 10**9):
        opt = anonymous_optimum(n)
        assert _bits([opt.theta_star, opt.k_star]) == _bits(_scan_optimum(n))


@pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
def test_critical_chain_is_bit_equal_to_the_plain_loop(q):
    for n in range(2, MAX_CHAIN_N + 1):
        report = critical_chain(n, q)
        etas, visibilities, required = _loop_chain(n, q)
        assert _bits(report.critical_etas) == _bits(etas), n
        assert _bits(report.visibilities) == _bits(visibilities), n
        assert _bits([report.next_required_eta]) == _bits([required]), n
        assert report.violations == len(etas)


def _first_serving(m, q):
    # the dimension search as a plain scan of every n from 2 up, with no sandwich window
    return next(n for n in range(2, MAX_CHAIN_N + 1) if len(_loop_chain(n, q)[0]) >= m)


@pytest.mark.parametrize("m, q", [(1, 0.8), (2, 0.7), (3, 0.9), (2, 0.35), (2, 0.5), (40, 0.7), (100, 1.0), (7, 0.2)])
def test_min_dimension_parameter_matches_the_plain_loop(m, q):
    assert min_dimension_parameter(m, q).n == _first_serving(m, q)


def _seeded_pairs():
    # (m, q) with ceil(m/q^2) <= 150, which keeps the full scans to about a second
    rng = np.random.default_rng(20261019)
    pairs = [(m, 1.0) for m in range(1, 40)]
    for q in rng.uniform(0.05, 1.0, size=400).tolist():
        pairs.append((int(rng.integers(1, max(1, math.floor(150 * q * q)), endpoint=True)), q))
    return pairs


def test_min_dimension_parameter_window_matches_the_full_scan():
    for m, q in [*_seeded_pairs(), (1000, 1.0), (600, 0.8)]:
        assert min_dimension_parameter(m, q).n == _first_serving(m, q), (m, q)


@pytest.mark.parametrize("q", [1.0, 0.9, 0.5, 0.2])
def test_max_shared_observers_lies_in_the_sandwich_window(q):
    # floor(n q^2) <= count(n) < (n + 1) q^2, so the count is floor(n q^2) or one more
    for n in range(2, MAX_CHAIN_N + 1, 7):
        assert max_shared_observers(n, q) - math.floor(n * q * q) in (0, 1), n
