"""Observer-chain planning: critical sharpness chains, capacity counts, dimension search.

A "critical" chain lets every observer tune their sharpness to exactly saturate
the noncontextual bound given the visibility they inherit: eta_k = 1/(v_k sqrt(n)).
Strict violation needs an infinitesimally larger eta, so the counts reported
here are the number of observers who can saturate; any epsilon-increase of the
last sharpness turns all of them into strict violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .operators import MAX_FLOAT_N, _require_int, _require_unit
from .sequence import _quality_factor

# Largest n of a critical chain: a chain has up to n steps and the dimension search runs at most three
# chains, b - 1 ... b + 1 with b = ceil(m/q^2) (b - 1 and b from the exact sandwich, the + 1 for rounding),
# so this bounds the time and report size of chain, plan and sweep.
MAX_CHAIN_N = 1000


@dataclass(frozen=True)
class ChainReport:
    """Greedy critical chain for n settings at ensemble visibility q.

    ``visibilities`` has one more entry than ``critical_etas``: it ends with
    the visibility available to the first observer who can no longer saturate,
    and ``next_required_eta`` is the (>1) sharpness that observer would need.
    """

    n: int
    q: float
    critical_etas: tuple[float, ...]
    visibilities: tuple[float, ...]
    violations: int
    next_required_eta: float


def critical_chain(n: int, q: float) -> ChainReport:
    """Run the saturation recursion until the required sharpness exceeds 1."""
    _require_int(n, "n", 2, MAX_CHAIN_N)
    _require_unit(q, "visibility q")

    sqrt_n = math.sqrt(n)
    v = float(q)
    etas: list[float] = []
    visibilities = [v]
    # The loop ends, in floats too: every saturating eta is >= 1/sqrt(n), so each step scales v by at most
    # f(1/sqrt(n)) ~ 1 - 1/(2n), far above rounding, until v drops below 1/sqrt(n).
    while (required := 1.0 / (v * sqrt_n) if v > 0 else math.inf) <= 1.0:
        etas.append(required)
        v *= _quality_factor(n, required)
        visibilities.append(v)
    return ChainReport(
        n=n,
        q=float(q),
        critical_etas=tuple(etas),
        visibilities=tuple(visibilities),
        violations=len(etas),
        next_required_eta=required,
    )


def max_shared_observers(n: int, q: float) -> int:
    """Number of observers the critical chain can serve."""
    return critical_chain(n, q).violations


@dataclass(frozen=True)
class DimensionPlan:
    """Smallest parameter n serving m observers at visibility q.

    Two closed-form lower bounds are reported alongside the exact search
    result: ``bound_from_q`` = ceil(m/q) and ``bound_from_q_squared`` =
    ceil(m/q^2). They disagree in general; the recursion matches the squared
    form (each saturating step lowers the squared visibility by less than 1/n,
    starting from v_1^2 = q^2), so ``bound_from_q`` can be unachievable and is
    flagged via ``bound_from_q_sufficient``.
    """

    m: int
    q: float
    n: int
    bound_from_q: int
    bound_from_q_sufficient: bool
    bound_from_q_squared: int


def min_dimension_parameter(m: int, q: float) -> DimensionPlan:
    """Search the smallest n >= 2 with at least m critical-chain observers.

    A critical step at eta = 1/(v sqrt(n)), with u = 1 - sqrt(1 - eta^2), lowers v^2 by
    drop = (1 - f^2)/(n eta^2), and for every 0 < eta <= 1 exactly
    drop - (n-1)/n^2 = (n-1) u^2/(n^3 eta^2) > 0 and 1/n - drop = u (2 - u (2n-1)/n)/(n^2 eta^2) > 0.
    So, exactly, n serves at least floor(n q^2) and fewer than (n+1) q^2 observers: b = max(2, ceil(m/q^2))
    suffices and no n <= m/q^2 - 1 does, so the answer is b - 1 or b. The search builds at most three chains,
    b - 1 ... b + 1: the + 1, measured rather than proven, absorbs the chain's own rounding where n q^2 is within
    rounding of m (m = 1, q = 0.5773502691896257 needs n = 4 with b = 3), and a miss raises RuntimeError.
    Refuses m and q whose ceil(m/q^2) is above ``MAX_CHAIN_N``.
    """
    _require_int(m, "m", 1)
    if not _require_unit(q, "visibility q"):  # q = 0 serves no observer
        raise ValueError(f"visibility q must lie in (0, 1], got {q}")
    # An int compares with a float exactly, so a huge m is refused here before m / q^2 converts it.
    if m > MAX_CHAIN_N * q * q:
        raise ValueError(f"m={m} at q={q} needs n up to ceil(m/q^2), above the limit of {MAX_CHAIN_N}")

    bound_linear = math.ceil(m / q)
    bound_squared = math.ceil(m / (q * q))
    b = max(2, bound_squared)
    for n in range(max(2, b - 1), b + 2):
        if max_shared_observers(n, q) >= m:
            break
    else:
        raise RuntimeError(f"no n in {max(2, b - 1)}..{b + 1} serves m={m} at q={q}; recursion bound violated")
    return DimensionPlan(
        m=m,
        q=float(q),
        n=n,
        bound_from_q=bound_linear,
        bound_from_q_sufficient=max(2, bound_linear) >= n,
        bound_from_q_squared=bound_squared,
    )


def anonymous_chain_length(n: int, theta: float) -> float:
    """Real-valued chain length when every observer uses the same sharpness sin(theta).

    Valid for sin(theta) in [1/sqrt(n), 1): returns exactly 1.0 at the lower
    edge and raises below it (a single observer already fails to saturate).
    The integer number of saturating observers is floor of the result.
    """
    _require_int(n, "n", 2, MAX_FLOAT_N)
    try:
        valid = 0.0 < theta < math.pi / 2 and not isinstance(theta, np.ndarray)
    except TypeError:  # a string or a list does not compare
        valid = False
    if not valid:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    s = math.sin(theta)
    critical = 1.0 / math.sqrt(n)
    if s < critical - 1e-12:
        raise ValueError(f"sin(theta) = {s} is below the single-observer threshold {critical}")
    return _chain_length(n, theta)


def _chain_length(n: int, theta: float) -> float:
    """``anonymous_chain_length`` without its checks, for an n and theta the caller has checked."""
    numerator = math.log(math.sin(theta)) + 0.5 * math.log(n)
    if numerator <= 0.0:
        return 1.0
    # log((1 + (n-1) cos theta) / n) in log1p form: 1 - cos theta = 2 sin^2(theta/2) keeps it from
    # rounding to 0 where cos theta is within an ulp of 1 (theta near asin(1/sqrt(n)), n above ~1e12).
    denominator = math.log1p(-2.0 * (n - 1) / n * math.sin(theta / 2) ** 2)
    return 1.0 - numerator / denominator


@dataclass(frozen=True)
class AnonymousOptimum:
    n: int
    theta_star: float
    k_star: float


def _golden_maximize(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def anonymous_optimum(n: int) -> AnonymousOptimum:
    """Maximize the anonymous chain length over the shared angle theta.

    Deterministic, and bit-equal on any numpy dispatch: one numpy pass screens a 512-point grid, the scalar
    formula decides its maximum (numpy's log may differ from libm's in the last bit), and golden-section
    refines that bracket to 1e-10 in theta.
    """
    _require_int(n, "n", 3, MAX_FLOAT_N)
    grid_points = 512
    lo = math.asin(1.0 / math.sqrt(n)) + 1e-9
    hi = math.pi / 2 - 1e-9
    f = partial(_chain_length, n)
    grid = lo + (hi - lo) * np.arange(grid_points) / (grid_points - 1)
    screen = 1.0 - (np.log(np.sin(grid)) + 0.5 * math.log(n)) / np.log1p(-2.0 * (n - 1) / n * np.sin(grid / 2) ** 2)
    xs = grid.tolist()
    # The screen omits the 1.0 floor (never the maximum); on the unimodal scalar grid the walks end at its first one.
    best = int(screen.argmax())
    while best + 1 < grid_points and f(xs[best + 1]) > f(xs[best]):
        best += 1
    while best > 0 and f(xs[best - 1]) >= f(xs[best]):
        best -= 1
    theta_star, k_star = _golden_maximize(f, xs[max(best - 1, 0)], xs[min(best + 1, grid_points - 1)], 1e-10)
    return AnonymousOptimum(n=n, theta_star=theta_star, k_star=k_star)
