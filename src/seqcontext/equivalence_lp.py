"""Map recorded marginal tables onto exact parity equivalences with a linear program.

Recorded tables never satisfy the parity indistinguishability constraints
exactly. Every convex remix of the recorded preparations is operationally
realizable, so we search row-stochastic weights w[x, x'] whose remixed table
satisfies all parity constraints exactly while keeping the witness as large as
possible. The diagonal weight mass F measures how little remixing was needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import constraint_signs, setting_signs
from .sequence import MarginalTable, witness
from .simplex import solve_lp

PRIMARY_OBJECTIVE_SLACK = 1e-9
PARITY_RESIDUAL_TOL = 1e-8
# Largest n the dense simplex solves: an exact n = 4 table takes under a second, n = 5
# ran past two minutes, and the (2^n + n(2^n - n - 1)) x 4^n program grows to 94 GB at n = 10.
MAX_LP_N = 4


@dataclass(frozen=True)
class WeightMatrix:
    """Row-stochastic remixing weights omega[x, x']."""

    n: int
    omega: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        size = 2**self.n
        if omega.shape != (size, size):
            raise ValueError(f"omega must have shape ({size}, {size}), got {omega.shape}")
        if omega.min() < -1e-12:
            raise ValueError("omega must be entrywise nonnegative")
        if np.max(np.abs(omega.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("omega rows must sum to 1 within 1e-9")
        object.__setattr__(self, "omega", omega)


def closeness(weights: WeightMatrix) -> float:
    """Diagonal weight mass F = sum_x omega[x, x], in [0, 2^n]."""
    return float(np.trace(weights.omega))


def normalized_closeness(weights: WeightMatrix) -> float:
    """F divided by 2^n, so the identity remix scores 1."""
    return closeness(weights) / 2**weights.n


def winning_to_outcome(p: np.ndarray) -> np.ndarray:
    """Swap winning and outcome-0 probabilities of a (2^n, n) array (involutive).

    The winning outcome for setting y is bit y of x, so entries whose bit is 1
    become 1 - p and the others are kept.
    """
    return np.where(setting_signs(p.shape[1]).T > 0, p, 1.0 - p)


def parity_residual(p0: np.ndarray, n: int) -> float:
    """Largest parity-constraint violation max_{r,y} |sum_x (-1)^(r.x) p0[x, y]|."""
    signs = constraint_signs(n)
    return float(np.max(np.abs(signs @ p0))) if signs.size else 0.0


@dataclass(frozen=True)
class LPResult:
    status: str
    a_pre: float
    a_post: float | None
    omega: WeightMatrix | None
    closeness_raw: float | None
    closeness_normalized: float | None
    post_table: np.ndarray | None  # clipped outcome-0 probabilities p0[x, y] after the remix
    max_parity_residual: float | None

    def to_json_dict(self) -> dict:
        return {
            "a_pre": self.a_pre,
            "a_post": self.a_post,
            "F_raw": self.closeness_raw,
            "F_normalized": self.closeness_normalized,
            "status": self.status,
            "residuals": {"max_parity": self.max_parity_residual},
            "omega": None if self.omega is None else [[float(v) for v in row] for row in self.omega.omega],
        }


def _build_program(p0: np.ndarray, n: int):
    """Assemble the equality system and witness objective over flattened w[x, x']."""
    size = 2**n
    signs = constraint_signs(n)
    # Row (r, y) holds (-1)^(r.x) p0[x', y] at column x * size + x', one exact product each.
    parity = (signs[:, None, :, None] * p0.T[None, :, None, :]).reshape(-1, size * size)
    rows = np.concatenate([np.kron(np.eye(size), np.ones(size)), parity])
    rhs = np.concatenate([np.ones(size), np.zeros(parity.shape[0])])
    coeff_per_source = p0 @ setting_signs(n) / (n * size)  # [x', x]
    c = coeff_per_source.T.reshape(-1)
    return c, rows, rhs


def enforce_equivalences(table: MarginalTable) -> LPResult:
    """Maximize the witness over remixed tables that satisfy every parity constraint.

    The uniform remix is always feasible, so valid input cannot come back
    infeasible. A second solve then maximizes F among weight matrices whose
    witness is within 1e-9 of the optimum, making the reported omega
    deterministic and minimally distorting; if that solve is not optimal, the
    primary solution is kept. Tables with n above ``MAX_LP_N`` raise ValueError
    before the program is built.
    """
    n = table.n
    if n > MAX_LP_N:
        raise ValueError(f"n={n} is above MAX_LP_N={MAX_LP_N}, the largest table the dense linear program solves")
    size = 2**n
    p0 = winning_to_outcome(table.win)
    a_pre = witness(table)

    c_primary, rows, rhs = _build_program(p0, n)
    first = solve_lp(c_primary, rows, rhs)
    if first.status != "optimal":
        return LPResult(
            status=first.status,
            a_pre=a_pre,
            a_post=None,
            omega=None,
            closeness_raw=None,
            closeness_normalized=None,
            post_table=None,
            max_parity_residual=None,
        )

    # max F subject to the original system plus c_primary.w >= optimum - slack.
    nvar = c_primary.size
    rows2 = np.zeros((rows.shape[0] + 1, nvar + 1))
    rows2[:-1, :nvar] = rows
    rows2[-1, :nvar] = c_primary
    rows2[-1, -1] = -1.0
    rhs2 = np.concatenate([rhs, [first.objective - PRIMARY_OBJECTIVE_SLACK]])
    c_secondary = np.zeros(nvar + 1)
    c_secondary[: nvar : size + 1] = 1.0  # diagonal entries of w
    second = solve_lp(c_secondary, rows2, rhs2)
    solution = second.x[:nvar] if second.status == "optimal" else first.x

    omega = WeightMatrix(n=n, omega=solution.reshape(size, size))
    p0_post = omega.omega @ p0
    post = np.clip(p0_post, 0.0, 1.0)
    a_post = float(np.mean(winning_to_outcome(post)))
    residual = parity_residual(p0_post, n)
    if residual > PARITY_RESIDUAL_TOL:
        raise RuntimeError(f"parity residual {residual:.3e} exceeds {PARITY_RESIDUAL_TOL} on an optimal solve")
    return LPResult(
        status="optimal",
        a_pre=a_pre,
        a_post=a_post,
        omega=omega,
        closeness_raw=closeness(omega),
        closeness_normalized=normalized_closeness(omega),
        post_table=post,
        max_parity_residual=residual,
    )
