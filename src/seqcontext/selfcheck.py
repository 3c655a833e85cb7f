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
from .operators import DEFAULT_TOL, build_observables, verify_anticommutation
from .planner import critical_chain
from .sequence import UnsharpSetting, evolve_average, kraus_operator, visibility_chain
from .simplex import solve_lp

ANTICOMMUTATION_N_MAX = 10
POVM_N_MAX = 6
LP_ORACLE_SEED = 77
LP_ORACLE_INSTANCES = 40
LP_TOL = 1e-9  # feasibility of a vertex, and the largest simplex-vs-vertex objective gap


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def check_anticommutation() -> CheckResult:
    worst = 0.0
    for n in range(2, ANTICOMMUTATION_N_MAX + 1):
        report = verify_anticommutation(build_observables(n))
        worst = max(worst, report.max_residual)
        if not report.ok:
            return CheckResult(
                "anticommutation",
                False,
                f"n={n}: residual {report.max_residual:.3e} at pair {report.worst_pair}",
            )
    return CheckResult("anticommutation", True, f"n=2..{ANTICOMMUTATION_N_MAX}, max residual {worst:.3e}")


def check_povm_completeness() -> CheckResult:
    worst = 0.0
    for n in range(2, POVM_N_MAX + 1):
        obs = build_observables(n)
        eye = np.eye(obs.dim)
        for y in range(1, n + 1):
            for eta in (0.0, 0.3, 0.7637, 1.0):
                total = np.zeros((obs.dim, obs.dim), dtype=complex)
                for b in (0, 1):
                    k = kraus_operator(UnsharpSetting(n=n, y=y, b=b, eta=eta))
                    total += k.conj().T @ k
                worst = max(worst, float(np.max(np.abs(total - eye))))
    ok = worst <= DEFAULT_TOL
    return CheckResult("povm_completeness", ok, f"max |sum K'K - 1| = {worst:.3e}")


def check_visibility_lemma(seed: int = 20240, draws_per_n: int = 20, tol: float = 1e-9) -> CheckResult:
    """Evolved average states must equal v_k * rho_x(1) + (1 - v_k) * mix."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(2, 7):
        dim = build_observables(n).dim
        mix = np.eye(dim) / dim
        pure = build_ensemble(n, 1.0)
        for _ in range(draws_per_n):
            q = float(rng.uniform(0.05, 1.0))
            etas = [float(e) for e in rng.uniform(0.0, 1.0, size=rng.integers(1, n + 1))]
            plan = visibility_chain(n, q, etas)
            states = build_ensemble(n, q)
            for k in range(len(etas)):
                expected = plan.visibilities[k] * pure + (1.0 - plan.visibilities[k]) * mix
                worst = max(worst, float(np.max(np.abs(states - expected))))
                if k + 1 < len(etas):
                    states = evolve_average(states, etas[k], n)
    ok = worst <= tol
    return CheckResult("visibility_lemma", ok, f"max |simulated - closed form| = {worst:.3e}")


def check_sandwich(n_max: int = 12, margin: float = 1e-12) -> CheckResult:
    """Each critical step drops the squared visibility by strictly between
    (n-1)/n^2 and 1/n."""
    for n in range(2, n_max + 1):
        report = critical_chain(n, 1.0)
        lower = (n - 1) / n**2
        upper = 1.0 / n
        for k in range(report.violations):
            drop = report.visibilities[k] ** 2 - report.visibilities[k + 1] ** 2
            if not (lower + margin < drop < upper - margin):
                return CheckResult(
                    "visibility_sandwich",
                    False,
                    f"n={n}, step {k + 1}: drop {drop:.6e} outside ({lower:.6e}, {upper:.6e})",
                )
    return CheckResult("visibility_sandwich", True, f"strict for all steps, n=2..{n_max}")


def check_equivalence_preserved() -> CheckResult:
    """Averaged channels are unital, so parity equivalences must survive evolution."""
    worst = 0.0
    for n, q, eta in [(2, 1.0, 0.9), (3, 1.0, 0.6441), (3, 0.4, 1.0), (4, 0.8, 0.5)]:
        report = check_operational_equivalence(evolve_average(build_ensemble(n, q), eta, n))
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
    combos = np.array(list(combinations(range(c.size), rank)), dtype=int)
    # One stacked SVD screens every column choice; each (rows, rank) slice gets its own rank.
    full = np.linalg.matrix_rank(a[:, combos].transpose(1, 0, 2)) == rank
    best = None
    for cols in combos[full]:
        xs, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        x = np.zeros(c.size)
        x[cols] = xs
        if np.min(xs) < -LP_TOL or np.max(np.abs(a @ x - b)) > LP_TOL:
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
