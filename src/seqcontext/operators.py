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
# build_ensemble's and run_sequence's 2^n states of 4^(n//2) complex entries take 32 MiB at n = 11, 256 MiB at 12.
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
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be a (d, d) array, got shape {m.shape}")
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


STATE_TOL = 1e-8  # is_density_matrix's one tolerance: on |tr - 1|, the Hermitian defect and -lambda_min


def is_density_matrix(matrix) -> bool:
    """Trace 1, Hermitian and positive semidefinite, each to ``STATE_TOL``; NaN fails.

    Takes one d x d matrix. A Cholesky factorisation of m + (STATE_TOL/2) 1 screens for positivity
    first. It is backward stable, so its success proves lambda_min > -STATE_TOL/2 - O(d u |m|), above
    -STATE_TOL for any matrix of modest norm such as a density matrix; when it fails, eigvalsh decides.
    """
    m = _as_square(matrix)
    if abs(m.trace() - 1.0) > STATE_TOL:  # a d = 0 matrix fails here, before .max() meets no entries
        return False
    if not abs(m - m.conj().T).max() <= STATE_TOL:
        return False
    try:
        np.linalg.cholesky(m + _shift(len(m)))
        return True
    except np.linalg.LinAlgError:
        return bool(np.linalg.eigvalsh(m).min() >= -STATE_TOL)


@lru_cache(maxsize=32)  # the screen's read-only shift (STATE_TOL/2) 1, made once per dim
def _shift(dim: int) -> np.ndarray:
    return _frozen((STATE_TOL / 2) * np.eye(dim))


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
