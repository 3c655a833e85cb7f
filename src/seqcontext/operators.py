"""Dense complex-operator arithmetic and the recursive anticommuting observable family.

Everything here works on plain ``numpy`` complex arrays. Matrices returned by
the constructors are marked read-only so they can be shared (and cached)
safely; algebraic properties such as Hermiticity or positivity are never
assumed, only checked against an explicit tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-12


def _frozen(matrix) -> np.ndarray:
    out = np.array(matrix, dtype=complex)
    out.setflags(write=False)
    return out


SIGMA_X = _frozen([[0, 1], [1, 0]])
# Convention: entry (0,1) = -i, entry (1,0) = +i.
SIGMA_Y = _frozen([[0, -1j], [1j, 0]])
SIGMA_Z = _frozen([[1, 0], [0, -1]])
IDENTITY_2 = _frozen(np.eye(2))


def identity(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return np.eye(dim, dtype=complex)


def _as_square(matrix, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stacked) or m.shape[-1] != m.shape[-2]:
        shape = "(..., d, d)" if stacked else "square 2-D"
        raise ValueError(f"{name} must be a {shape} array, got shape {m.shape}")
    return m


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two square matrices; the left factor indexes blocks."""
    a = _as_square(a, "a")
    b = _as_square(b, "b")
    return np.kron(a, b)


# The three predicates take one d x d matrix or a (..., d, d) stack, and hold only when every slice passes.
# Each converts and shape-checks its input once, then hands the array to the private forms below.
def is_hermitian(matrix, tol: float = DEFAULT_TOL) -> bool:
    return _is_hermitian(_as_square(matrix, stacked=True), tol)


def is_positive_semidefinite(matrix, tol: float = 1e-10) -> bool:
    """Hermitian with smallest eigenvalue >= -tol.

    A Cholesky factorisation of m + (tol/2) 1 screens the stack first. It is backward
    stable, so its success proves lambda_min > -tol/2 - O(d u |m|), above -tol for any
    matrix of modest norm such as a density matrix; when it fails, eigvalsh decides.
    """
    return _is_positive_semidefinite(_as_square(matrix, stacked=True), tol)


def is_density_matrix(matrix, tol: float = 1e-10) -> bool:
    m = _as_square(matrix, stacked=True)
    if abs(m.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0) > tol:
        return False
    return _is_positive_semidefinite(m, tol)


def _is_hermitian(m: np.ndarray, tol: float) -> bool:
    return bool(abs(m - m.swapaxes(-1, -2).conj()).max(initial=0.0) <= tol)


def _is_positive_semidefinite(m: np.ndarray, tol: float) -> bool:
    if not _is_hermitian(m, max(tol, DEFAULT_TOL)):
        return False
    if tol > 0:
        try:
            np.linalg.cholesky(m + _shift(m.shape[-1], tol))
            return True
        except np.linalg.LinAlgError:
            pass
    return bool(np.linalg.eigvalsh(m).min(initial=np.inf) >= -tol)


@lru_cache(maxsize=32)  # the screen's read-only shift (tol/2) 1, made once per (dim, tol)
def _shift(dim: int, tol: float) -> np.ndarray:
    return _frozen((tol / 2) * np.eye(dim))


@dataclass(frozen=True)
class ObservableSet:
    """The n pairwise-anticommuting dichotomic observables for a given number of settings.

    ``observables[k - 1]`` is the observable for setting ``k`` (settings are
    1-based throughout the package). All matrices are ``dim x dim`` with
    ``dim = 2 ** (n // 2)``. ``stack`` holds them as one read-only (n, dim, dim)
    array, and each observable is a view of it.
    """

    n: int
    dim: int
    observables: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stack = _frozen(self.observables)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "observables", tuple(stack))

    def observable(self, y: int) -> np.ndarray:
        """Observable for 1-based setting index ``y``."""
        if not 1 <= y <= self.n:
            raise ValueError(f"setting index must be in 1..{self.n}, got {y}")
        return self.observables[y - 1]

    def __iter__(self):
        return iter(self.observables)


@lru_cache(maxsize=None)
def _observable_family(n: int) -> ObservableSet:
    # Base cases are the three Pauli matrices; larger families extend by
    # tensoring sigma_x onto the previous family and appending identity
    # blocks with sigma_y (and sigma_z for odd n).
    if n == 2:
        return ObservableSet(n=2, dim=2, observables=(SIGMA_X, SIGMA_Y))
    if n == 3:
        return ObservableSet(n=3, dim=2, observables=(SIGMA_X, SIGMA_Y, SIGMA_Z))
    prev = _observable_family(n - 1 if n % 2 == 0 else n - 2)
    eye = identity(prev.dim)
    family = [tensor_product(g, SIGMA_X) for g in prev]
    family.append(tensor_product(eye, SIGMA_Y))
    if n % 2:
        family.append(tensor_product(eye, SIGMA_Z))
    return ObservableSet(n=n, dim=2 * prev.dim, observables=tuple(family))


def build_observables(n: int) -> ObservableSet:
    """The anticommuting observable family for ``n`` settings.

    Raises ``ValueError`` unless ``n`` is an integer >= 2. Every call for the
    same ``n`` returns the same cached, immutable set.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return _observable_family(int(n))


@dataclass(frozen=True)
class AnticommutationReport:
    ok: bool
    max_residual: float
    worst_pair: tuple[int, int]  # 1-based setting indices


def verify_anticommutation(observables: ObservableSet) -> AnticommutationReport:
    """Check {G_j, G_k} = 2 delta_jk * identity over all pairs, to ``DEFAULT_TOL``.

    The residual is the largest entrywise deviation across pairs; the report
    carries the offending pair so failures are diagnosable.
    """
    eye2 = 2.0 * identity(observables.dim)
    worst = 0.0
    worst_pair = (1, 1)
    for j in range(observables.n):
        gj = observables.observables[j]
        for k in range(j, observables.n):
            gk = observables.observables[k]
            anti = gj @ gk + gk @ gj
            if j == k:
                anti = anti - eye2
            residual = float(np.max(np.abs(anti)))
            if residual > worst:
                worst = residual
                worst_pair = (j + 1, k + 1)
    return AnticommutationReport(ok=worst <= DEFAULT_TOL, max_residual=worst, worst_pair=worst_pair)
