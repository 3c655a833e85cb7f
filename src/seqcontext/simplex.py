"""Dense two-phase simplex for small equality-form linear programs.

Solves  max c.x  subject to  A x = b, x >= 0  on a dense tableau. Bland's
smallest-index rule picks the entering column and breaks ratio-test ties,
which precludes cycling on degenerate vertices. Long degenerate pivot runs
accumulate floating-point drift in a tableau method, so the tableau is
periodically recomputed ("reinverted") from the original data at the current
basis, and optimality is only declared on a freshly recomputed tableau.
Intended for the small dense instances this package produces (tens to a few
hundred variables); no sparsity or revised-simplex machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PREFERRED_PIVOT = 1e-7
_RATIO_TIE_TOL = 1e-12
_FEASIBILITY_TOL = 1e-9
_REFRESH_INTERVAL = 60
_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LinearProgramResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    residual: float | None


def _refreshed_tableau(w: np.ndarray, b: np.ndarray, basis: list[int]) -> np.ndarray:
    """Recompute B^-1 [W | b] from the original data at the current basis."""
    full = np.hstack([w, b[:, None]])
    try:
        return np.linalg.solve(w[:, basis], full)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(w[:, basis], full, rcond=None)[0]


def _reduced_costs(c: np.ndarray, tableau: np.ndarray, basis: list[int]) -> np.ndarray:
    return c[basis] @ tableau[:, :-1] - c


def _choose_pivot_row(tableau: np.ndarray, basis: list[int], col: int) -> int:
    """Min-ratio row with Bland tie-break; prefers well-scaled pivot elements."""
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


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    basis[row] = col


def _maximize(w: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int]):
    """Run Bland pivots with periodic reinversion until verified optimality.

    Returns (status, tableau); ``basis`` is updated in place.
    """
    pivots = 0
    while pivots <= _MAX_PIVOTS:
        tableau = _refreshed_tableau(w, b, basis)
        reduced = _reduced_costs(c, tableau, basis)
        moved = False
        for _ in range(_REFRESH_INTERVAL):
            entering = (reduced < -_REDUCED_COST_TOL).nonzero()[0]
            if not entering.size:
                if not moved:
                    return "optimal", tableau
                break  # refresh once more before declaring optimality
            enter = int(entering[0])
            leave = _choose_pivot_row(tableau, basis, enter)
            if leave < 0:
                # verify unboundedness on fresh data before reporting it
                fresh = _refreshed_tableau(w, b, basis)
                if np.all(fresh[:, enter] <= _PIVOT_TOL):
                    return "unbounded", fresh
                tableau = fresh
                reduced = _reduced_costs(c, tableau, basis)
                continue
            _pivot(tableau, basis, leave, enter)
            reduced = reduced - reduced[enter] * tableau[leave, :-1]
            pivots += 1
            moved = True
    raise RuntimeError("simplex failed to terminate; pivot tolerance breakdown")


def solve_lp(objective, a_eq, b_eq) -> LinearProgramResult:
    """Maximize objective.x over {A x = b, x >= 0}.

    Returns an optimal basic feasible solution, or an explicit infeasible /
    unbounded status. Redundant equality rows are detected in phase 1 and
    dropped. On optimal results the solution is recomputed directly from the
    final basis and the equality residual ||Ax - b||_inf must stay below 1e-9;
    a larger residual raises, it is never silently accepted.
    """
    c = np.asarray(objective, dtype=float)
    a_orig = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_orig = np.asarray(b_eq, dtype=float).reshape(-1)
    if c.ndim != 1:
        raise ValueError("objective must be a vector")
    if a_orig.shape != (b_orig.size, c.size):
        raise ValueError(
            f"constraint shapes are inconsistent: A {a_orig.shape}, b {b_orig.shape}, c {c.shape}"
        )

    a = a_orig.copy()
    b = b_orig.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    m, nvar = a.shape

    # Phase 1: artificial basis, maximize -(sum of artificials).
    w1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(nvar), -np.ones(m)])
    basis = list(range(nvar, nvar + m))
    status, tableau = _maximize(w1, b, c1, basis)
    value = float(c1[basis] @ tableau[:, -1])
    if status != "optimal" or value < -_FEASIBILITY_TOL:
        return LinearProgramResult(status="infeasible", x=None, objective=None, residual=None)

    # Drive leftover artificials out of the basis; rows with no structural
    # pivot are redundant constraints and get dropped.
    keep_rows = []
    for i in range(m):
        if basis[i] >= nvar:
            candidates = (np.abs(tableau[i, :nvar]) > _PREFERRED_PIVOT).nonzero()[0]
            if not candidates.size:
                continue
            _pivot(tableau, basis, i, int(candidates[0]))
        keep_rows.append(i)
    a2 = a[keep_rows]
    b2 = b[keep_rows]
    basis = [basis[i] for i in keep_rows]

    # Phase 2 on the structural columns only.
    status, tableau = _maximize(a2, b2, c, basis)
    if status == "unbounded":
        return LinearProgramResult(status="unbounded", x=None, objective=None, residual=None)

    x = np.zeros(nvar)
    x[basis] = tableau[:, -1]
    if x.min() < -1e-7:
        raise RuntimeError(f"simplex basis became infeasible (min entry {x.min():.3e})")
    x[x < 0] = 0.0
    residual = float(np.max(np.abs(a_orig @ x - b_orig))) if m else 0.0
    if residual > _FEASIBILITY_TOL:
        raise RuntimeError(f"simplex produced residual {residual:.3e} above {_FEASIBILITY_TOL}")
    return LinearProgramResult(status="optimal", x=x, objective=float(c @ x), residual=residual)
