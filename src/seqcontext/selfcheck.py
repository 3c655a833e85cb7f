"""Cross-checking invariant suite behind the CLI ``verify`` command.

Each check pits an implementation against an independent route to the same
quantity: the channel simulation against the closed-form visibility recursion,
the critical chain against its analytic envelope, the simplex against brute
vertex enumeration. All randomness is seeded so a verify run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ensembles import build_ensemble, check_operational_equivalence
from .operators import DEFAULT_TOL, build_observables, identity
from .planner import critical_chain
from .sequence import _evolve, _instrument, visibility_chain
from .simplex import solve_lp

ANTICOMMUTATION_N_MAX = 10
POVM_N_MAX = 6
VISIBILITY_DRAWS_PER_N = 20
VISIBILITY_TOL = 1e-9  # largest |simulated - closed form| entry the visibility lemma allows
SANDWICH_N_MAX = 12
SANDWICH_MARGIN = 1e-12  # how far inside its bounds each critical step's drop must stay
LP_ORACLE_SEED = 77
LP_ORACLE_INSTANCES = 40
LP_TOL = 1e-9  # feasibility of a vertex, and the largest simplex-vs-vertex objective gap


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def check_anticommutation() -> CheckResult:
    """{G_j, G_k} = 2 delta_jk * identity over all pairs, to ``DEFAULT_TOL``; a failure names n and the 1-based pair."""
    worst = 0.0
    for n in range(2, ANTICOMMUTATION_N_MAX + 1):
        family = build_observables(n)
        eye2 = 2.0 * identity(family.shape[-1])
        worst_n, worst_pair = 0.0, (1, 1)
        for j, gj in enumerate(family):
            # {G_j, G_k} for k = j..n in one batched product each way; a row holds at most n matrices
            anti = gj @ family[j:] + family[j:] @ gj
            anti[0] -= eye2
            residuals = np.abs(anti).max(axis=(-2, -1))
            k = int(residuals.argmax())  # the first worst pair in the row, as a pair-by-pair scan keeps it
            if residuals[k] > worst_n:
                worst_n = float(residuals[k])
                worst_pair = (j + 1, j + k + 1)
        worst = max(worst, worst_n)
        if worst_n > DEFAULT_TOL:
            return CheckResult("anticommutation", False, f"n={n}: residual {worst_n:.3e} at pair {worst_pair}")
    return CheckResult("anticommutation", True, f"n=2..{ANTICOMMUTATION_N_MAX}, max residual {worst:.3e}")


def check_povm_completeness() -> CheckResult:
    worst = 0.0
    for n in range(2, POVM_N_MAX + 1):
        eye = np.eye(build_observables(n).shape[-1])
        for eta in (0.0, 0.3, 0.7637, 1.0):
            # The simulator's own (2n, d, d) stack, as (y, b, d, d): one batched K'K, summed over b.
            kraus = _instrument(n, eta)[0].reshape(n, 2, *eye.shape)
            total = np.add.reduce(kraus.conj().swapaxes(-1, -2) @ kraus, axis=1, initial=0)
            worst = max(worst, float(np.abs(total - eye).max()))
    ok = worst <= DEFAULT_TOL
    return CheckResult("povm_completeness", ok, f"max |sum K'K - 1| = {worst:.3e}")


def check_visibility_lemma(seed: int = 20240) -> CheckResult:
    """Evolved average states must equal v_k * rho_x(1) + (1 - v_k) * mix, for every x.

    Only x = 0...0 and the n single-bit x's are evolved: rho_x = (1 - |x|) rho_0 + sum_{j in x} rho_(e_j),
    the channel is linear and the closed form is affine in x with the same weights, so any x's residual is
    at most |1 - |x|| + |x| <= 2n - 1 times the basis's. That bound must be within ``VISIBILITY_TOL``; the
    detail gives the raw maximum."""
    rng = np.random.default_rng(seed)
    worst = bound = 0.0
    for n in range(2, 7):
        dim = build_observables(n).shape[-1]
        mix = np.eye(dim) / dim
        basis = [0] + [1 << j for j in range(n)]  # stack indices of x = 0...0 and the single-bit x's
        pure = build_ensemble(n, 1.0)[basis]
        for _ in range(VISIBILITY_DRAWS_PER_N):
            q = float(rng.uniform(0.05, 1.0))
            etas = [float(e) for e in rng.uniform(0.0, 1.0, size=rng.integers(1, n + 1))]
            plan = visibility_chain(n, q, etas)
            states = build_ensemble(n, q)[basis]
            for k in range(len(etas)):
                expected = plan.visibilities[k] * pure + (1.0 - plan.visibilities[k]) * mix
                residual = float(np.abs(states - expected).max())
                worst, bound = max(worst, residual), max(bound, (2 * n - 1) * residual)
                if k + 1 < len(etas):
                    states = _evolve(states, etas[k], n)
    ok = bound <= VISIBILITY_TOL
    return CheckResult("visibility_lemma", ok, f"max |simulated - closed form| = {worst:.3e}")


def check_sandwich() -> CheckResult:
    """Each critical step drops the squared visibility by strictly between
    (n-1)/n^2 and 1/n."""
    for n in range(2, SANDWICH_N_MAX + 1):
        report = critical_chain(n, 1.0)
        lower = (n - 1) / n**2
        upper = 1.0 / n
        for k in range(report.violations):
            drop = report.visibilities[k] ** 2 - report.visibilities[k + 1] ** 2
            if not (lower + SANDWICH_MARGIN < drop < upper - SANDWICH_MARGIN):
                return CheckResult(
                    "visibility_sandwich",
                    False,
                    f"n={n}, step {k + 1}: drop {drop:.6e} outside ({lower:.6e}, {upper:.6e})",
                )
    return CheckResult("visibility_sandwich", True, f"strict for all steps, n=2..{SANDWICH_N_MAX}")


def check_equivalence_preserved() -> CheckResult:
    """Averaged channels are unital, so parity equivalences must survive evolution."""
    worst = 0.0
    for n, q, eta in [(2, 1.0, 0.9), (3, 1.0, 0.6441), (3, 0.4, 1.0), (4, 0.8, 0.5)]:
        report = check_operational_equivalence(_evolve(build_ensemble(n, q), eta, n))
        worst = max(worst, report.residual)
        if not report.passed:
            return CheckResult(
                "equivalence_preserved",
                False,
                f"n={n}, q={q}, eta={eta}: residual {report.residual:.3e} at r={report.worst_r}",
            )
    return CheckResult("equivalence_preserved", True, f"max residual {worst:.3e}")


def enumerate_vertex_optimum(c, a_eq, b_eq):
    """Brute-force LP oracle: scan all basic solutions of A x = b, x >= 0.

    A basic solution counts when it is nonnegative and satisfies the rows to
    within ``LP_TOL``. Returns (feasible, best objective). Only sound for
    bounded feasible regions, which the callers arrange.
    """
    c = np.asarray(c, dtype=float)
    a = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b = np.asarray(b_eq, dtype=float).reshape(-1)
    rank = np.linalg.matrix_rank(a)
    best = None
    for cols in map(list, combinations(range(c.size), rank)):  # lists: a tuple would index x as 2-D
        # rcond=None cuts singular values where matrix_rank does, so the solve's own rank says if cols is a basis
        xs, _, cols_rank, _ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        x = np.zeros(c.size)
        x[cols] = xs
        if cols_rank < rank or xs.min() < -LP_TOL or np.abs(a @ x - b).max() > LP_TOL:
            continue
        value = float(c @ x)
        if best is None or value > best:
            best = value
    return best is not None, best


def check_lp_oracle() -> CheckResult:
    rng = np.random.default_rng(LP_ORACLE_SEED)
    worst = 0.0
    for i in range(LP_ORACLE_INSTANCES):
        nvar = int(rng.integers(3, 7))
        extra = int(rng.integers(0, 3))
        x_feasible = rng.uniform(0.0, 1.0, size=nvar)
        x_feasible[rng.random(nvar) < 0.3] = 0.0
        if x_feasible.sum() == 0.0:
            x_feasible[0] = 1.0
        rows = [np.ones(nvar)] + [rng.normal(size=nvar) for _ in range(extra)]
        a = np.vstack(rows)
        b = a @ x_feasible  # bounded: first row caps the simplex
        c = rng.normal(size=nvar)
        result = solve_lp(c, a, b)
        feasible, best = enumerate_vertex_optimum(c, a, b)
        if result.status != "optimal" or not feasible:
            return CheckResult("lp_vertex_oracle", False, f"instance {i}: status {result.status}")
        gap = abs(result.objective - best)
        worst = max(worst, gap)
        if gap > LP_TOL:
            return CheckResult(
                "lp_vertex_oracle", False, f"instance {i}: simplex {result.objective} vs vertices {best}"
            )
    return CheckResult("lp_vertex_oracle", True, f"{LP_ORACLE_INSTANCES} instances, max gap {worst:.3e}")


def run_all() -> list[CheckResult]:
    return [
        check_anticommutation(),
        check_povm_completeness(),
        check_visibility_lemma(),
        check_sandwich(),
        check_equivalence_preserved(),
        check_lp_oracle(),
    ]
