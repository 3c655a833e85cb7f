"""Parity-oblivious preparation ensembles and their operational-equivalence checks.

States live in the "experiment frame": the preparation for input string x at
visibility q is (identity + q * A_x) / dim, where A_x is the signed, normalized
sum of the anticommuting observables. The entangled-pair construction
(``partial_trace_construction``) produces the transpose of these states and is
kept as an independent validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ObservableSet, build_observables, identity, tensor_product


def all_bit_strings(n: int) -> list[str]:
    """All length-n bit strings in increasing binary order."""
    return [format(i, f"0{n}b") for i in range(2**n)]


def parity_strings(n: int) -> list[str]:
    """All r in {0,1}^n with Hamming weight >= 2 (the hidden parities)."""
    return [r for r in all_bit_strings(n) if r.count("1") >= 2]


def parity_signs(n: int) -> np.ndarray:
    """Sylvester-Hadamard matrix H[r, x] = (-1)^(r.x), rows and columns in binary order.

    Row r of H holds the sign every preparation x carries in the parity
    constraint for r; the weight-1 rows give (-1)^(x_y) for each setting y.
    """
    signs = np.ones((1, 1))
    for _ in range(n):
        signs = np.block([[signs, signs], [signs, -signs]])
    return signs


def _validate_bits(x: str, n: int) -> str:
    if not isinstance(x, str) or len(x) != n or any(c not in "01" for c in x):
        raise ValueError(f"x must be a bit string of length {n}, got {x!r}")
    return x


def signed_observable_sum(observables: ObservableSet, x: str) -> np.ndarray:
    """A_x = n^(-1/2) * sum_i (-1)^(x_i) G_i.

    Squares to the identity because the G_i pairwise anticommute.
    """
    _validate_bits(x, observables.n)
    acc = np.zeros((observables.dim, observables.dim), dtype=complex)
    for bit, g in zip(x, observables.observables):
        acc += (-1.0 if bit == "1" else 1.0) * g
    return acc / np.sqrt(observables.n)


@dataclass(frozen=True)
class Preparation:
    x: str
    rho: np.ndarray


@dataclass(frozen=True)
class Ensemble:
    n: int
    q: float
    preparations: tuple[Preparation, ...]
    mix: np.ndarray


def build_preparation(n: int, x: str, q: float, observables: ObservableSet | None = None) -> Preparation:
    """Preparation for input x at ensemble visibility q: (1 + q A_x) / dim."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"visibility q must lie in [0, 1], got {q}")
    obs = observables if observables is not None else build_observables(n)
    _validate_bits(x, n)
    rho = (identity(obs.dim) + q * signed_observable_sum(obs, x)) / obs.dim
    return Preparation(x=x, rho=rho)


def build_ensemble(n: int, q: float) -> Ensemble:
    """All 2^n preparations at visibility q, plus the maximally mixed state."""
    obs = build_observables(n)
    preps = tuple(build_preparation(n, x, q, obs) for x in all_bit_strings(n))
    return Ensemble(n=n, q=float(q), preparations=preps, mix=identity(obs.dim) / obs.dim)


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    worst_r: str
    residual: float


def check_operational_equivalence(ensemble: Ensemble, tol: float = 1e-10) -> EquivalenceReport:
    """Verify sum_{r.x=0} rho_x = sum_{r.x=1} rho_x for every parity string r.

    The residual is the largest entrywise deviation over all r with |r| >= 2;
    ``worst_r`` names the parity that attains it.
    """
    signs = parity_signs(ensemble.n)
    worst = 0.0
    worst_r = ""
    for r in parity_strings(ensemble.n):
        even = np.zeros_like(ensemble.mix)
        odd = np.zeros_like(ensemble.mix)
        for sign, prep in zip(signs[int(r, 2)], ensemble.preparations):
            if sign > 0:
                even += prep.rho
            else:
                odd += prep.rho
        residual = float(np.max(np.abs(even - odd)))
        if residual > worst or not worst_r:
            worst = residual
            worst_r = r
    return EquivalenceReport(passed=worst <= tol, worst_r=worst_r, residual=worst)


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
    transpose of ``build_preparation(n, x, 1).rho`` and serves only as a
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
