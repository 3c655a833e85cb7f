"""Dense complex-operator arithmetic and the recursive anticommuting observable family.

Everything here works on plain ``numpy`` complex arrays. Matrices returned by
the constructors are marked read-only so they can be shared (and cached)
safely; algebraic properties such as Hermiticity or positivity are never
assumed, only checked against an explicit tolerance.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-12
# Largest n of every dense route, checked by build_observables, which each dense constructor goes through.
# build_ensemble's, run_sequence's and verify's 2^n states of 4^(n//2) complex entries take 32 MiB at n = 11, 256 MiB at 12.
MAX_DENSE_N = 11
MAX_FLOAT_N = 2**53  # largest n of the closed-form and anonymous-chain formulas: every int up to it is an exact float


def _frozen(matrix) -> np.ndarray:
    out = np.array(matrix, dtype=complex)
    out.setflags(write=False)
    return out


SIGMA_X = _frozen([[0, 1], [1, 0]])
# Convention: entry (0,1) = -i, entry (1,0) = +i.
SIGMA_Y = _frozen([[0, -1j], [1j, 0]])
SIGMA_Z = _frozen([[1, 0], [0, -1]])


def identity(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return np.eye(dim, dtype=complex)


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be a (..., d, d) array, got shape {m.shape}")
    return m


def _show_int(value) -> str:
    """An int as its digits, or as its bit length past Python's int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def _require_int(value, name: str = "n", low: int = 2, high: int | None = None) -> None:
    """ValueError unless a Python or numpy integer (bool is refused) in low..high, or >= low when high is None."""
    # The type test first: a plain int skips the slower isinstance test against numpy's integer class.
    if type(value) is not int and (not isinstance(value, (int, np.integer)) or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or high is not None and value > high:
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {span}, got {_show_int(value)}")


def _require_unit(value, name: str):
    """The package's one [0, 1] check of every q and eta, refusing NaN and any numpy array. Returns value."""
    try:
        if not isinstance(value, np.ndarray) and 0.0 <= value <= 1.0:
            return value
    except TypeError:  # a string or a list does not compare
        pass
    raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


# The three predicates take one d x d matrix or a (..., d, d) stack, and hold only when every slice passes.
# Each converts and shape-checks its input once, then hands the array to the private forms below.
def is_hermitian(matrix, tol: float = DEFAULT_TOL) -> bool:
    return _is_hermitian(_as_square(matrix), tol)


def is_positive_semidefinite(matrix, tol: float = 1e-10) -> bool:
    """Hermitian with smallest eigenvalue >= -tol.

    A Cholesky factorisation of m + (tol/2) 1 screens the stack first. It is backward
    stable, so its success proves lambda_min > -tol/2 - O(d u |m|), above -tol for any
    matrix of modest norm such as a density matrix; when it fails, eigvalsh decides.
    """
    return _is_positive_semidefinite(_as_square(matrix), tol)


def is_density_matrix(matrix, tol: float = 1e-10) -> bool:
    m = _as_square(matrix)
    error = abs(m.trace(axis1=-2, axis2=-1) - 1.0)
    if (error if m.ndim == 2 else error.max(initial=0.0)) > tol:  # .max on one matrix's scalar is a full reduction
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


@lru_cache(maxsize=None)
def _observable_family(n: int) -> np.ndarray:
    # Base cases are the three Pauli matrices; larger families extend by
    # tensoring sigma_x onto the previous family and appending identity
    # blocks with sigma_y (and sigma_z for odd n).
    if n <= 3:
        return _frozen((SIGMA_X, SIGMA_Y, SIGMA_Z)[:n])
    prev = _observable_family(n - 1 if n % 2 == 0 else n - 2)
    eye = identity(prev.shape[-1])
    family = [np.kron(g, SIGMA_X) for g in prev]
    family.append(np.kron(eye, SIGMA_Y))
    if n % 2:
        family.append(np.kron(eye, SIGMA_Z))
    return _frozen(family)


def build_observables(n: int) -> np.ndarray:
    """The n pairwise-anticommuting dichotomic observables as one read-only (n, dim, dim) array.

    Entry ``y - 1`` is the observable for setting ``y`` (settings are 1-based
    throughout the package), and ``dim = 2 ** (n // 2)``. Raises ``ValueError``
    unless ``n`` is an integer in 2..``MAX_DENSE_N``. Every call for the same
    ``n`` returns the same cached array.
    """
    _require_int(n, "n", 2, MAX_DENSE_N)
    return _observable_family(int(n))
