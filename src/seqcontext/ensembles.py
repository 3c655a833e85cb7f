"""Parity-oblivious preparation ensembles and their operational-equivalence checks.

States live in the "experiment frame": the preparation for input string x at
visibility q is (identity + q * A_x) / dim, where A_x is the signed, normalized
sum of the anticommuting observables. The entangled-pair construction
(``partial_trace_construction``) produces the transpose of these states and is
kept as an independent validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import ObservableSet, build_observables, identity, tensor_product

# Largest entrywise residual at which two parity-class sums count as equal.
EQUIVALENCE_TOL = 1e-10


def all_bit_strings(n: int) -> list[str]:
    """All length-n bit strings in increasing binary order."""
    return [format(i, f"0{n}b") for i in range(2**n)]


def _signs(rows, n: int) -> np.ndarray:
    """sign[i, x] = (-1)^popcount(rows[i] & x) over x in 0..2^n - 1, the one sign rule of the package."""
    both = np.bitwise_and.outer(np.asarray(rows, dtype=np.int64), np.arange(2**n))
    odd = np.zeros_like(both)
    for bit in range(n):
        odd ^= both >> bit
    return 1.0 - 2.0 * (odd & 1)


def _hidden_parities(n: int) -> list[int]:
    """Every r in 0..2^n - 1 with at least two bits set, in increasing order."""
    return [r for r in range(2**n) if bin(r).count("1") >= 2]


def parity_signs(n: int) -> np.ndarray:
    """Sylvester-Hadamard matrix H[r, x] = (-1)^(r.x), rows and columns in binary order.

    Row r of H holds the sign every preparation x carries in the parity
    constraint for r; the weight-1 rows give (-1)^(x_y) for each setting y.
    """
    return _signs(range(2**n), n)


def setting_signs(n: int) -> np.ndarray:
    """sign[y, x] = (-1)^(x_y), setting y counted from the left bit: the weight-1 rows of ``parity_signs``."""
    return _signs([2 ** (n - 1 - y) for y in range(n)], n)


def constraint_signs(n: int) -> np.ndarray:
    """Rows of ``parity_signs`` for the hidden parities |r| >= 2, in increasing r."""
    return _signs(_hidden_parities(n), n)


def _validate_bits(x: str, n: int) -> str:
    if not isinstance(x, str) or len(x) != n or any(c not in "01" for c in x):
        raise ValueError(f"x must be a bit string of length {n}, got {x!r}")
    return x


def signed_observable_sum(observables: ObservableSet, x: str) -> np.ndarray:
    """A_x = n^(-1/2) * sum_i (-1)^(x_i) G_i.

    Squares to the identity because the G_i pairwise anticommute.
    """
    _validate_bits(x, observables.n)
    signs = np.array([-1.0 if bit == "1" else 1.0 for bit in x])[:, None, None]
    # One reduce adds the signed observables in setting order from +0, as a running sum would.
    return np.add.reduce(signs * observables.stack, axis=0, initial=0) / np.sqrt(observables.n)


def build_preparation(n: int, x: str, q: float) -> np.ndarray:
    """Density matrix of the preparation for input x at ensemble visibility q: (1 + q A_x) / dim."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"visibility q must lie in [0, 1], got {q}")
    obs = build_observables(n)
    return (identity(obs.dim) + q * signed_observable_sum(obs, x)) / obs.dim


@lru_cache(maxsize=1)  # one n at a time: build_ensemble's callers visit each n in turn
def _signed_sums(n: int) -> np.ndarray:
    """Read-only (2^n, dim, dim) stack of every A_x, in binary order of x."""
    obs = build_observables(n)
    acc = np.zeros((2**n, obs.dim, obs.dim), dtype=complex)
    for sign, g in zip(setting_signs(n), obs.stack):
        acc += sign[:, None, None] * g
    acc /= np.sqrt(n)
    acc.setflags(write=False)
    return acc


def build_ensemble(n: int, q: float) -> np.ndarray:
    """All 2^n preparations at visibility q as one (2^n, dim, dim) stack, in binary order of x.

    Each slice comes from the same elementwise operations, in the same order, as
    ``build_preparation``, so it is bit-equal to that call.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"visibility q must lie in [0, 1], got {q}")
    dim = build_observables(n).dim  # ValueError for a bad n, before the cache sees it
    return (identity(dim) + q * _signed_sums(n)) / dim


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    worst_r: str
    residual: float


def check_operational_equivalence(states) -> EquivalenceReport:
    """Verify sum_{r.x=0} rho_x = sum_{r.x=1} rho_x for every parity string r.

    ``states`` holds the 2^n preparations in binary order of x, n >= 2. The
    residual is the largest entrywise deviation over all r with |r| >= 2;
    ``worst_r`` names the parity that attains it.
    """
    states = np.asarray(states, dtype=complex)
    n = len(states).bit_length() - 1
    if n < 2 or len(states) != 2**n:
        raise ValueError(f"expected 2^n states with n >= 2, got {len(states)}")
    worst = 0.0
    worst_r = ""
    # Masked sums add the states in binary order of x, so they round like a running sum.
    for r, sign in zip(_hidden_parities(n), constraint_signs(n)):
        residual = float(np.max(np.abs(states[sign > 0].sum(axis=0) - states[sign < 0].sum(axis=0))))
        if residual > worst or not worst_r:
            worst = residual
            worst_r = format(r, f"0{n}b")
    return EquivalenceReport(passed=worst <= EQUIVALENCE_TOL, worst_r=worst_r, residual=worst)


def _permute_qubits(rho: np.ndarray, perm: list[int]) -> np.ndarray:
    """Reorder tensor factors so that new position p holds old qubit perm[p]."""
    t = len(perm)
    tensor = rho.reshape((2,) * (2 * t))
    axes = perm + [t + p for p in perm]
    return tensor.transpose(axes).reshape(2**t, 2**t)


def partial_trace_construction(n: int, x: str) -> np.ndarray:
    """Evaluate the entangled-pair form of the preparation literally.

    Builds maximally entangled two-qubit pairs, reorders qubits so all kept
    halves trail all traced halves (halves of pair j stay paired), applies
    (1 + A_x) to the traced block and contracts it. The result equals the
    transpose of ``build_preparation(n, x, 1)`` and serves only as a
    validation oracle for that construction.
    """
    obs = build_observables(n)
    _validate_bits(x, n)
    pairs = n // 2
    dim = obs.dim

    pair_vec = np.zeros(4, dtype=complex)
    pair_vec[0] = pair_vec[3] = 1.0 / np.sqrt(2.0)
    pair = np.outer(pair_vec, pair_vec.conj())

    state = pair
    for _ in range(pairs - 1):
        state = tensor_product(state, pair)

    # Qubit order so far: A1 B1 A2 B2 ...; move to A1..Am B1..Bm.
    perm = [2 * j for j in range(pairs)] + [2 * j + 1 for j in range(pairs)]
    state = _permute_qubits(state, perm)

    op = tensor_product(identity(dim) + signed_observable_sum(obs, x), identity(dim))
    full = op @ state
    return np.einsum("aiaj->ij", full.reshape(dim, dim, dim, dim))
