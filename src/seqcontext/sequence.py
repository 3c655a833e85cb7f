"""Sequential unsharp-measurement simulation: channels, marginals, witnesses.

A measurement of sharpness eta on setting y is the two-outcome instrument with
POVM elements (1 + (-1)^b eta G_y)/2 and Hermitian Kraus operators that
interpolate between the two projectors of G_y. Observers are independent, so
each one sees the uniform average of the previous observer's post-measurement
states; that average is what ``evolve_average`` computes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .ensembles import all_bit_strings, build_preparation
from .operators import build_observables, identity, is_density_matrix

# Bounds the dense simulation's work: run_sequence builds and evolves 2^n states of
# 4^(n//2) complex entries, one after another; 2^n of them would fill this at n <= 11.
STATE_BYTES_BUDGET = 2**26
# Entries kept by each instrument cache: per n, per (n, eta) Kraus stack, per (n, eta) POVM
# views. A chain's observers each use one (n, eta).
INSTRUMENT_CACHE_SIZE = 8


@dataclass(frozen=True)
class UnsharpSetting:
    """One measurement choice: setting y in 1..n, outcome bit b, sharpness eta."""

    n: int
    y: int
    b: int
    eta: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 1 <= self.y <= self.n:
            raise ValueError(f"setting index y must be in 1..{self.n}, got {self.y}")
        if self.b not in (0, 1):
            raise ValueError(f"outcome b must be 0 or 1, got {self.b}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"sharpness eta must lie in [0, 1], got {self.eta}")


def theta_to_eta(theta: float) -> float:
    """Convert an angle parameter to sharpness, eta = sin(theta)."""
    eta = math.sin(theta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"sin(theta) = {eta} falls outside [0, 1]")
    return eta


def _projectors(g: np.ndarray, sign) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The identity, the projector keep = (1 + sign g)/2 of observables g onto outcome signs
    (-1)^b, and the other outcome's projector 1 - keep. Every formula of the instrument is
    elementwise: a broadcast stack's slices are bit-equal to one (d, d) g with a float sign."""
    eye = identity(g.shape[-1])
    keep = (eye + sign * g) / 2.0
    return eye, keep, eye - keep


def _unsharp(keep: np.ndarray, rest: np.ndarray, eta) -> np.ndarray:
    """Kraus operators sqrt((1+eta)/2) keep + sqrt((1-eta)/2) rest of sharpness eta."""
    return math.sqrt((1.0 + eta) / 2.0) * keep + math.sqrt((1.0 - eta) / 2.0) * rest


def _povm(eye: np.ndarray, g: np.ndarray, sign, eta) -> np.ndarray:
    """POVM elements (1 + sign eta g)/2 of sharpness eta."""
    return (eye + sign * eta * g) / 2.0


def _one_setting(s: UnsharpSetting) -> tuple[np.ndarray, float]:
    return build_observables(s.n).observable(s.y), -1.0 if s.b else 1.0


def projector(setting: UnsharpSetting) -> np.ndarray:
    """Sharp projector (1 + (-1)^b G_y) / 2 onto the outcome-b eigenspace."""
    return _projectors(*_one_setting(setting))[1]


def kraus_operator(setting: UnsharpSetting) -> np.ndarray:
    """Hermitian Kraus operator sqrt((1+eta)/2) P_b + sqrt((1-eta)/2) P_(1-b)."""
    return _unsharp(*_projectors(*_one_setting(setting))[1:], setting.eta)


def povm_element(setting: UnsharpSetting) -> np.ndarray:
    """Unsharp POVM element (1 + (-1)^b eta G_y) / 2."""
    g, sign = _one_setting(setting)
    return _povm(identity(g.shape[-1]), g, sign, setting.eta)


# The instrument's caches, typed: n = 3.0 or eta = 1 never share an entry with n = 3 or
# eta = 1.0, so each still meets the checks of build_observables and UnsharpSetting on its own.
@lru_cache(maxsize=INSTRUMENT_CACHE_SIZE, typed=True)
def _instrument_parts(n: int) -> tuple[np.ndarray, ...]:
    """The eta-independent, read-only parts of n's instrument, broadcast over settings y and
    outcomes b: the (d, d) identity, keep and 1 - keep of shape (n, 2, d, d), the (n, 1, d, d)
    observables and the (2, 1, 1) signs. A fresh eta then costs two scalar multiplies and an add."""
    g = build_observables(n).stack[:, None]
    sign = np.array([1.0, -1.0])[:, None, None]
    parts = (*_projectors(g, sign), g, sign)
    for part in parts:
        part.setflags(write=False)
    return parts


@lru_cache(maxsize=INSTRUMENT_CACHE_SIZE, typed=True)
def _kraus_stack(n: int, eta) -> np.ndarray:
    """Read-only (2n, d, d) Kraus stack of the (n, eta) instrument in (y, b) order, bit-equal
    to ``kraus_operator``."""
    _, keep, rest, _, _ = _instrument_parts(n)
    UnsharpSetting(n=n, y=1, b=0, eta=eta)  # ValueError for eta outside [0, 1]
    kraus = _unsharp(keep, rest, eta)
    kraus.setflags(write=False)
    return kraus.reshape(2 * n, *keep.shape[-2:])


@lru_cache(maxsize=INSTRUMENT_CACHE_SIZE, typed=True)
def _povm_views(n: int, eta) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read-only POVM elements [y - 1][b] of the (n, eta) instrument, bit-equal to ``povm_element``."""
    eye, _, _, g, sign = _instrument_parts(n)
    UnsharpSetting(n=n, y=1, b=0, eta=eta)
    povm = _povm(eye, g, sign, eta)
    povm.setflags(write=False)
    # Per-matrix views made once: indexing the stack on every call slowed run_sequence ~5 %.
    return tuple(map(tuple, povm))


def evolve_average(state: np.ndarray, eta: float, n: int) -> np.ndarray:
    """Average post-measurement state over a uniform setting choice and both outcomes.

    Input must be a density matrix or a (..., dim, dim) stack of them, each slice
    evolved exactly as alone; the channel is trace preserving and unital.
    """
    build_observables(n)  # ValueError for a bad n, before the state is checked
    if not is_density_matrix(state, tol=1e-8):
        raise ValueError("evolve_average requires a density matrix input")
    state = np.asarray(state, dtype=complex)
    # Every K is Hermitian entry for entry, so K itself is the right factor K^dagger.
    kraus = _kraus_stack(n, eta)
    d = state.shape[-1]
    if state.ndim == 2:
        # One state: two batched matmuls, each one (d, d) GEMM per K, then one reduce that adds
        # the 2n terms in (y, b) order from +0, as a running sum would.
        return np.add.reduce(kraus @ state @ kraus, axis=0, initial=0) / n
    # Stacks loop over K: batching them over K as well makes (2n, m, d, d) temporaries,
    # whose page faults made it up to 2x slower from n = 6.
    out = np.zeros((state.size // d, d), dtype=complex)
    for k in kraus:
        # Left product per slice; the right one as a single (m*d, d) GEMM, whose rows
        # round as each slice's own product does. A grouped left product would not.
        out += (k @ state).reshape(-1, d) @ k
    return (out / n).reshape(state.shape)


def marginal_probability(state: np.ndarray, setting: UnsharpSetting) -> float:
    """p(b | state, y) = Tr(state * E_y^b) for the unsharp POVM element."""
    element = _povm_views(setting.n, setting.eta)[setting.y - 1][int(setting.b)]
    p = float((np.asarray(state, dtype=complex) @ element).trace().real)
    if not -1e-10 <= p <= 1.0 + 1e-10:  # also refuses NaN and infinities
        raise ValueError(f"marginal probability {p} outside [0, 1]; input is not a valid state")
    return min(max(p, 0.0), 1.0)


def quality_factor(n: int, eta: float) -> float:
    """Signal fraction surviving one averaged unsharp measurement.

    f = (1 + (n-1) sqrt(1 - eta^2)) / n, ranging from 1 (eta=0) to 1/n (eta=1).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"sharpness eta must lie in [0, 1], got {eta}")
    return (1.0 + (n - 1) * math.sqrt(1.0 - eta * eta)) / n


def closed_form_witness(n: int, visibility: float, eta: float) -> float:
    """Witness of an observer seeing visibility v and measuring at sharpness eta."""
    return 0.5 * (1.0 + visibility * eta / math.sqrt(n))


def noncontextual_bound(n: int) -> float:
    """Largest witness value any preparation-noncontextual model allows."""
    return (n + 1) / (2 * n)


@dataclass(frozen=True)
class SequencePlan:
    """Per-observer sharpness with derived quality factors, visibilities and witnesses."""

    n: int
    q: float
    etas: tuple[float, ...]
    quality_factors: tuple[float, ...]
    visibilities: tuple[float, ...]
    witnesses: tuple[float, ...]


def visibility_chain(n: int, q: float, etas) -> SequencePlan:
    """Propagate visibilities v_1 = q, v_{k+1} = v_k f_k through a sharpness list."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"visibility q must lie in [0, 1], got {q}")
    etas = tuple(float(e) for e in etas)
    factors, visibilities, predicted = [], [], []
    v = float(q)
    for eta in etas:
        f = quality_factor(n, eta)
        visibilities.append(v)
        factors.append(f)
        predicted.append(closed_form_witness(n, v, eta))
        v *= f
    return SequencePlan(
        n=n,
        q=float(q),
        etas=etas,
        quality_factors=tuple(factors),
        visibilities=tuple(visibilities),
        witnesses=tuple(predicted),
    )


@dataclass(frozen=True)
class MarginalTable:
    """Winning probabilities p(b = x_y | x, y), one row per x, one column per y."""

    n: int
    win: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        win = np.asarray(self.win, dtype=float)
        if win.shape != (2**self.n, self.n):
            raise ValueError(f"win must have shape ({2**self.n}, {self.n}), got {win.shape}")
        if not np.all(np.isfinite(win)):
            raise ValueError("win contains non-finite entries; the table is incomplete")
        if win.min() < -1e-12 or win.max() > 1.0 + 1e-12:
            raise ValueError("winning probabilities must lie in [0, 1]")
        object.__setattr__(self, "win", win)
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.shape != win.shape:
                raise ValueError("sigma must match the shape of win")
            if not np.all(np.isfinite(sigma)) or sigma.min() < 0.0:
                raise ValueError("sigma must hold finite, non-negative standard errors")
            object.__setattr__(self, "sigma", sigma)


def witness(table: MarginalTable) -> float:
    """Average winning probability over all inputs and settings."""
    return float(np.mean(table.win))


def run_sequence(n: int, q: float, etas) -> list[MarginalTable]:
    """Simulate the full observer chain, one marginal table per observer.

    Observer k receives each preparation evolved through the k-1 preceding
    averaged channels, then measures at sharpness etas[k-1]. Each preparation
    is built and carried through the whole chain before the next, so one
    state is held at a time. Sizes whose 2^n states together exceed
    ``STATE_BYTES_BUDGET`` are refused before anything is built.
    """
    state_bytes = 2**n * 4 ** (n // 2) * 16
    if state_bytes > STATE_BYTES_BUDGET:
        raise ValueError(
            f"n={n} would simulate 2^n states totalling {state_bytes} bytes, above the "
            f"{STATE_BYTES_BUDGET}-byte budget; visibility_chain gives the same witnesses in closed form"
        )
    etas = tuple(float(e) for e in etas)
    # settings[k][y - 1][b]: observer k + 1's measurement of setting y with outcome b
    settings = [[[UnsharpSetting(n=n, y=y, b=b, eta=eta) for b in (0, 1)] for y in range(1, n + 1)] for eta in etas]

    wins = [np.empty((2**n, n)) for _ in etas]
    for ix, x in enumerate(all_bit_strings(n)):
        state = build_preparation(n, x, q)
        for k, eta in enumerate(etas):
            for y in range(1, n + 1):
                wins[k][ix, y - 1] = marginal_probability(state, settings[k][y - 1][int(x[y - 1])])
            if k + 1 < len(etas):
                state = evolve_average(state, eta, n)
    return [MarginalTable(n=n, win=win) for win in wins]


def read_marginal_csv(path) -> MarginalTable:
    """Load a table from CSV with header ``x,y,p_win[,sigma]``.

    Every (x, y) pair must appear exactly once; n is inferred from the bit
    strings.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh, restval="")  # short rows fail as bad values, not as None
        fields = reader.fieldnames or []
        if fields[:3] != ["x", "y", "p_win"]:
            raise ValueError(f"expected header x,y,p_win[,sigma] in {path}, got {fields}")
        has_sigma = "sigma" in fields
        rows = list(reader)
    if not rows:
        raise ValueError(f"no data rows in {path}")

    n = len(rows[0]["x"])
    # Count before allocating: the arrays hold n * 2^n entries, which one long
    # bit string would otherwise make huge. Surplus rows cannot all be distinct
    # (x, y) pairs, and the loop below names the first bad one.
    if len(rows) < n * 2**n:
        raise ValueError(f"table in {path} is incomplete: {len(rows)} rows for bit strings of length {n}")
    win = np.full((2**n, n), np.nan)
    sigma = np.full((2**n, n), np.nan) if has_sigma else None
    for row in rows:
        x = row["x"]
        if len(x) != n or any(c not in "01" for c in x):
            raise ValueError(f"bad bit string {x!r} in {path}")
        y = int(row["y"])
        if not 1 <= y <= n:
            raise ValueError(f"setting index {y} out of range 1..{n} in {path}")
        ix = int(x, 2)
        if not np.isnan(win[ix, y - 1]):
            raise ValueError(f"duplicate entry for x={x}, y={y} in {path}")
        win[ix, y - 1] = float(row["p_win"])
        if has_sigma:
            sigma[ix, y - 1] = float(row["sigma"])
    if np.isnan(win).any():
        raise ValueError(f"table in {path} is incomplete")
    return MarginalTable(n=n, win=win, sigma=sigma)


def write_marginal_csv(table: MarginalTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        fields = ["x", "y", "p_win"] + (["sigma"] if table.sigma is not None else [])
        writer = csv.writer(fh)
        writer.writerow(fields)
        for ix, x in enumerate(all_bit_strings(table.n)):
            for y in range(1, table.n + 1):
                row = [x, y, repr(float(table.win[ix, y - 1]))]
                if table.sigma is not None:
                    row.append(repr(float(table.sigma[ix, y - 1])))
                writer.writerow(row)
