"""Dense two-phase simplex for small equality-form linear programs.

Solves  max c.x  subject to  A x = b, x >= 0  on a dense tableau. The reduced
costs are carried as the tableau's last row, so each pivot's one rank-1 update
refreshes them with the constraint rows. Bland's smallest-index rule picks the
entering column and breaks ratio-test ties, which precludes cycling on
degenerate vertices. Long degenerate pivot runs accumulate floating-point drift
in a tableau method, so the tableau is periodically recomputed ("reinverted")
from the original data at the current basis, and optimality is only declared
on a freshly recomputed tableau.
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
    # Deterministic solver counters; no report prints them.
    pivots: tuple[int, int] = (0, 0)  # phase 1 (artificial drive-out included), phase 2
    degenerate_pivots: int = 0  # pivots whose ratio-test step was 0
    reinversions: int = 0  # fresh solves after each phase's first
    max_drift: float = 0.0  # largest |updated - fresh| tableau entry at a reinversion


def _refreshed_tableau(full: np.ndarray, c: np.ndarray, basis: list[int]) -> np.ndarray:
    """B^-1 [W | b] recomputed from the original data at the current basis, with the
    reduced costs c_B B^-1 W - c and the objective c_B B^-1 b as its last row."""
    try:
        body = np.linalg.solve(full[:, basis], full)
    except np.linalg.LinAlgError:
        body = np.linalg.lstsq(full[:, basis], full, rcond=None)[0]
    c_basis = c[basis]
    tableau = np.empty((body.shape[0] + 1, body.shape[1]))
    tableau[:-1] = body
    np.subtract(c_basis @ body[:, :-1], c, out=tableau[-1, :-1])
    tableau[-1, -1] = c_basis @ body[:, -1]
    return tableau


def _choose_pivot_row(tableau: np.ndarray, basis: list[int], col: int) -> int:
    """Min-ratio row with Bland tie-break; prefers well-scaled pivot elements.

    Scans the len(basis) constraint rows as Python floats read once, so a reduced-cost
    row below them is never a candidate.
    """
    coeffs = tableau[: len(basis), col].tolist()
    rhs = tableau[: len(basis), -1].tolist()
    for threshold in (_PREFERRED_PIVOT, _PIVOT_TOL):
        leave, best_ratio = -1, np.inf
        for i in [i for i, coeff in enumerate(coeffs) if coeff > threshold]:
            # max(rhs, 0) / coeff and abs(ratio - best) <= tie, without the builtin calls
            ratio = (0.0 if rhs[i] < 0.0 else rhs[i]) / coeffs[i]
            if ratio < best_ratio - _RATIO_TIE_TOL or (
                -_RATIO_TIE_TOL <= ratio - best_ratio <= _RATIO_TIE_TOL and (leave < 0 or basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
        if leave >= 0:
            return leave
    return -1


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """One rank-1 update of every row, a reduced-cost row below the constraints included."""
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= column[:, None] * tableau[row]
    basis[row] = col


def _maximize(full: np.ndarray, c: np.ndarray, basis: list[int], counts: dict):
    """Run Bland pivots on [W | b] with periodic reinversion until verified optimality.

    Returns (status, tableau without its reduced-cost row, pivots made); ``basis`` is
    updated in place, and ``counts`` gains the degenerate pivots, the reinversions and
    the largest drift seen at one.
    """

    def reinverted(tableau):
        fresh = _refreshed_tableau(full, c, basis)
        counts["reinversions"] += 1
        counts["max_drift"] = max(counts["max_drift"], float(np.abs(fresh - tableau).max()))
        return fresh

    tableau = _refreshed_tableau(full, c, basis)
    pivots = 0
    while pivots <= _MAX_PIVOTS:
        moved = False
        for _ in range(_REFRESH_INTERVAL):
            enter = int((tableau[-1, :-1] < -_REDUCED_COST_TOL).argmax())  # Bland: the first improving column
            if not tableau[-1, enter] < -_REDUCED_COST_TOL:
                if not moved:
                    return "optimal", tableau[:-1], pivots
                break  # refresh once more before declaring optimality
            leave = _choose_pivot_row(tableau, basis, enter)
            if leave < 0:
                # verify unboundedness on fresh data before reporting it
                tableau = reinverted(tableau)
                if np.all(tableau[:-1, enter] <= _PIVOT_TOL):
                    return "unbounded", tableau[:-1], pivots
                continue
            counts["degenerate_pivots"] += tableau.item(leave, -1) <= 0.0
            _pivot(tableau, basis, leave, enter)
            pivots += 1
            moved = True
        tableau = reinverted(tableau)
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
    if c.ndim != 1 or not c.size:
        raise ValueError(f"objective must be a non-empty vector, got shape {c.shape}: a program needs a variable")
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
    w1 = np.hstack([a, np.eye(m), b[:, None]])
    c1 = np.concatenate([np.zeros(nvar), -np.ones(m)])
    basis = list(range(nvar, nvar + m))
    counts = {"degenerate_pivots": 0, "reinversions": 0, "max_drift": 0.0}
    status, tableau, phase1 = _maximize(w1, c1, basis, counts)
    value = float(c1[basis] @ tableau[:, -1])
    if status != "optimal" or value < -_FEASIBILITY_TOL:
        return LinearProgramResult("infeasible", None, None, None, (phase1, 0), **counts)

    # Drive leftover artificials out of the basis; rows with no structural
    # pivot are redundant constraints and get dropped.
    keep_rows = []
    for i in range(m):
        if basis[i] >= nvar:
            candidates = (np.abs(tableau[i, :nvar]) > _PREFERRED_PIVOT).nonzero()[0]
            if not candidates.size:
                continue
            _pivot(tableau, basis, i, int(candidates[0]))
            phase1 += 1
        keep_rows.append(i)
    basis = [basis[i] for i in keep_rows]

    # Phase 2 on the structural columns only.
    status, tableau, phase2 = _maximize(np.hstack([a[keep_rows], b[keep_rows, None]]), c, basis, counts)
    if status == "unbounded":
        return LinearProgramResult("unbounded", None, None, None, (phase1, phase2), **counts)

    x = np.zeros(nvar)
    x[basis] = tableau[:, -1]
    if x.min() < -1e-7:
        raise RuntimeError(f"simplex basis became infeasible (min entry {x.min():.3e})")
    x[x < 0] = 0.0
    residual = float(np.max(np.abs(a_orig @ x - b_orig))) if m else 0.0
    if residual > _FEASIBILITY_TOL:
        raise RuntimeError(f"simplex produced residual {residual:.3e} above {_FEASIBILITY_TOL}")
    return LinearProgramResult("optimal", x, float(c @ x), residual, (phase1, phase2), **counts)
