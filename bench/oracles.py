"""Independent routes to the outputs the benchmark checks.

The LP oracle rebuilds the post-processing program from the table alone,
without the package's helpers, and solves it with HiGHS through
``scipy.optimize.linprog``. scipy is imported lazily, after the timed loop,
so its import time and memory count in no metric.
"""

from __future__ import annotations

import numpy as np


def _bits(n: int) -> np.ndarray:
    """bits[x, y] = bit y of input x, counting from the left."""
    return (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1


def outcome_zero(win: np.ndarray) -> np.ndarray:
    """p(b = 0 | x, y): the winning outcome for setting y is bit y of x."""
    return np.where(_bits(win.shape[1]) == 0, win, 1.0 - win)


def _parity_signs(n: int) -> np.ndarray:
    """Rows r with at least two set bits; entry (r, x) = (-1)^(r.x)."""
    bits = _bits(n)
    rows = bits[bits.sum(axis=1) >= 2]
    return 1.0 - 2.0 * ((rows @ bits.T) % 2)


def remixed_witness(omega: np.ndarray, win: np.ndarray) -> float:
    """Mean winning probability of the table remixed by the weights omega."""
    p0 = omega @ outcome_zero(win)
    return float(np.mean(np.where(_bits(win.shape[1]) == 0, p0, 1.0 - p0)))


def parity_violation(omega: np.ndarray, win: np.ndarray) -> float:
    """Largest |sum_x (-1)^(r.x) p0'[x, y]| of the remixed outcome table."""
    return float(np.max(np.abs(_parity_signs(win.shape[1]) @ (omega @ outcome_zero(win)))))


def stochastic_violation(omega: np.ndarray) -> float:
    """How far omega is from nonnegative with unit row sums."""
    return float(max(-omega.min(), np.max(np.abs(omega.sum(axis=1) - 1.0))))


def highs_max_witness(win: np.ndarray) -> float:
    """Largest witness over row-stochastic remixes that satisfy every parity equivalence."""
    from scipy.optimize import linprog

    n = win.shape[1]
    size = 2**n
    p0 = outcome_zero(win)
    signs = 1.0 - 2.0 * _bits(n)
    # Variables w[x, x'] row-major; the remixed table is w @ p0.
    gain = (signs @ p0.T).ravel()
    stochastic = np.kron(np.eye(size), np.ones(size))
    parity = np.vstack([np.kron(row, p0[:, y]) for row in _parity_signs(n) for y in range(n)])
    a_eq = np.vstack([stochastic, parity])
    b_eq = np.concatenate([np.ones(size), np.zeros(parity.shape[0])])
    res = linprog(-gain, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the oracle program: {res.message}")
    return 0.5 + float(-res.fun) / (n * size)
