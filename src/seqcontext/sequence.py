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
from .operators import MAX_DENSE_N, MAX_FLOAT_N, _require_int, _require_unit, _show_int, build_observables, identity, is_density_matrix


@dataclass(frozen=True)
class UnsharpSetting:
    """One measurement choice: setting y in 1..n, outcome bit b, sharpness eta."""

    n: int
    y: int
    b: int
    eta: float

    def __post_init__(self):
        _require_int(self.n)
        _require_int(self.y, "setting index y", 1, self.n)
        if self.b not in (0, 1):
            raise ValueError(f"outcome b must be 0 or 1, got {self.b}")
        _require_unit(self.eta, "sharpness eta")


def theta_to_eta(theta: float) -> float:
    """Convert an angle parameter to sharpness, eta = sin(theta); theta must be a finite real number."""
    try:
        if not isinstance(theta, np.ndarray) and math.isfinite(theta):
            return _require_unit(math.sin(theta), "sin(theta)")
    except TypeError:  # a string, a list, None or a complex number
        pass
    raise ValueError(f"theta must be a finite real number, got {theta!r}")


def _instrument_formula(g: np.ndarray, sign, eta) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators sqrt((1+eta)/2) keep + sqrt((1-eta)/2) (1 - keep), where keep = (1 + sign g)/2
    projects observables g onto outcome signs (-1)^b, and POVM elements (1 + sign eta g)/2. Every
    step is elementwise: a broadcast stack's slices are bit-equal to one (d, d) g with a float sign."""
    eye = identity(g.shape[-1])
    keep = (eye + sign * g) / 2.0
    kraus = math.sqrt((1.0 + eta) / 2.0) * keep + math.sqrt((1.0 - eta) / 2.0) * (eye - keep)
    return kraus, (eye + sign * eta * g) / 2.0


def _one_setting(s: UnsharpSetting) -> tuple[np.ndarray, float, float]:
    return build_observables(s.n)[s.y - 1], -1.0 if s.b else 1.0, s.eta


def kraus_operator(setting: UnsharpSetting) -> np.ndarray:
    """Hermitian Kraus operator sqrt((1+eta)/2) P_b + sqrt((1-eta)/2) P_(1-b)."""
    return _instrument_formula(*_one_setting(setting))[0]


def povm_element(setting: UnsharpSetting) -> np.ndarray:
    """Unsharp POVM element (1 + (-1)^b eta G_y) / 2."""
    return _instrument_formula(*_one_setting(setting))[1]


# One entry: run_sequence measures and evolves every state with one observer's (n, eta) before the next.
# Typed: n = 3.0 or eta = 1 never share an entry with n = 3 or eta = 1.0, and a miss checks n
# through build_observables, then eta through _require_unit.
@lru_cache(maxsize=1, typed=True)
def _instrument(n: int, eta) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The (n, eta) instrument, bit-equal to ``kraus_operator`` and ``povm_element``: its read-only
    (2n, d, d) Kraus stack in (y, b) order and its read-only POVM elements [y - 1][b]."""
    g = build_observables(n)[:, None]
    _require_unit(eta, "sharpness eta")
    kraus, povm = _instrument_formula(g, np.array([1.0, -1.0])[:, None, None], eta)
    kraus.setflags(write=False)
    povm.setflags(write=False)
    # Per-matrix POVM views made once: indexing the stack on every call slowed run_sequence ~5 %.
    return kraus.reshape(2 * n, *g.shape[-2:]), tuple(map(tuple, povm))


def _require_dim(shape: tuple, n: int) -> None:
    """ValueError unless shape is n's (2^(n // 2), 2^(n // 2)): O(1), run before n's instrument is built.
    The shift stops at 2^63, which no numpy axis reaches, so a huge n costs nothing."""
    if shape != (d := 1 << min(n // 2, 63), d):
        half = _show_int(n // 2)
        raise ValueError(f"n={_show_int(n)} acts on 2^{half} x 2^{half} states, got a state of shape {shape}")


def evolve_average(state: np.ndarray, eta: float, n: int) -> np.ndarray:
    """Average post-measurement state over a uniform setting choice and both outcomes.

    Input must be a density matrix or a (..., dim, dim) stack of them, each slice
    evolved exactly as alone; the channel is trace preserving and unital.
    """
    _require_int(n)  # both before the caches hash them: a list would raise TypeError there
    _require_unit(eta, "sharpness eta")
    state = np.asarray(state, dtype=complex)
    _require_dim(state.shape[-2:], n)  # a stack passes when each of its states meets n
    if not is_density_matrix(state, tol=1e-8):
        raise ValueError("evolve_average requires a density matrix input")
    return _evolve(state, eta, n)


def _evolve(state: np.ndarray, eta: float, n: int) -> np.ndarray:
    """``evolve_average`` without its density-matrix check, for complex states the caller built itself."""
    # Every K is Hermitian entry for entry, so K itself is the right factor K^dagger.
    kraus = _instrument(n, eta)[0]
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
    state = np.asarray(state, dtype=complex)
    _require_dim(state.shape, setting.n)  # one state: a stack's trace would mix its slices
    element = _instrument(setting.n, setting.eta)[1][setting.y - 1][int(setting.b)]
    try:
        p = float((state @ element).trace().real)
    except RuntimeWarning:  # inf * 0 in the product, raised where warnings are errors: p is NaN
        p = math.nan
    if not -1e-10 <= p <= 1.0 + 1e-10:  # also refuses NaN and infinities
        raise ValueError(f"marginal probability {p} outside [0, 1]; input is not a valid state")
    return min(max(p, 0.0), 1.0)


def quality_factor(n: int, eta: float) -> float:
    """Signal fraction surviving one averaged unsharp measurement.

    f = (1 + (n-1) sqrt(1 - eta^2)) / n, ranging from 1 (eta=0) to 1/n (eta=1).
    """
    _require_int(n, "n", 2, MAX_FLOAT_N)
    _require_unit(eta, "sharpness eta")
    return _quality_factor(n, eta)


def _quality_factor(n: int, eta: float) -> float:
    """``quality_factor`` without its checks, for an n and eta the caller has checked."""
    return (1.0 + (n - 1) * math.sqrt(1.0 - eta * eta)) / n


def closed_form_witness(n: int, visibility: float, eta: float) -> float:
    """Witness of an observer seeing visibility v and measuring at sharpness eta."""
    _require_int(n, "n", 2, MAX_FLOAT_N)
    _require_unit(visibility, "visibility v")
    _require_unit(eta, "sharpness eta")
    return 0.5 * (1.0 + visibility * eta / math.sqrt(n))


def noncontextual_bound(n: int) -> float:
    """Largest witness value any preparation-noncontextual model allows."""
    _require_int(n)
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
    _require_unit(q, "visibility q")
    _require_int(n, "n", 2, MAX_FLOAT_N)
    etas = tuple(float(_require_unit(e, "sharpness eta")) for e in etas)
    factors, visibilities, predicted = [], [], []
    v = float(q)
    for eta in etas:
        f = _quality_factor(n, eta)
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
        _require_int(self.n)
        win = np.asarray(self.win, dtype=float)
        if win.shape != (2**self.n, self.n):
            raise ValueError(f"win must have shape ({2**self.n}, {self.n}), got {win.shape}")
        if not np.all(np.isfinite(win)):
            raise ValueError("win contains non-finite entries; the table is incomplete")
        if win.min() < -1e-12 or win.max() > 1.0 + 1e-12:
            raise ValueError("winning probabilities must lie within 1e-12 of [0, 1]")
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
    averaged channels, then measures at sharpness etas[k-1]. The chain runs one
    observer at a time: every state is measured, then evolved in place, so the
    2^n states of the current step are held and each observer's instrument is
    built once. An n above ``MAX_DENSE_N`` is refused before anything is built.
    """
    _require_int(n)
    if n > MAX_DENSE_N:
        raise ValueError(
            f"n={_show_int(n)} is above MAX_DENSE_N={MAX_DENSE_N}, the largest dense simulation; "
            "visibility_chain gives the same witnesses in closed form"
        )
    etas = tuple(float(_require_unit(e, "sharpness eta")) for e in etas)
    bit_strings = all_bit_strings(n)
    states = [build_preparation(n, x, q) for x in bit_strings]
    wins = [np.empty((2**n, n)) for _ in etas]
    for k, eta in enumerate(etas):
        # settings[y - 1][b]: this observer's measurement of setting y with outcome b
        settings = [[UnsharpSetting(n=n, y=y, b=b, eta=eta) for b in (0, 1)] for y in range(1, n + 1)]
        for ix, x in enumerate(bit_strings):
            for y in range(1, n + 1):
                wins[k][ix, y - 1] = marginal_probability(states[ix], settings[y - 1][int(x[y - 1])])
            if k + 1 < len(etas):
                states[ix] = evolve_average(states[ix], eta, n)
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
        columns = ["p_win", "sigma"] if "sigma" in fields else ["p_win"]
        rows = list(reader)
    if not rows:
        raise ValueError(f"no data rows in {path}")

    n = len(rows[0]["x"])
    # Count before allocating: one long bit string would make the n * 2^n entries huge. Surplus rows cannot all
    # be distinct (x, y) pairs, and the loop names the first repeat; with none repeated, every entry is written.
    if len(rows) < n * 2**n:
        raise ValueError(f"table in {path} is incomplete: {len(rows)} rows for bit strings of length {n}")
    values = np.empty((len(columns), 2**n, n))  # p_win, then sigma if present
    seen = set()
    for row in rows:
        x = row["x"]
        if len(x) != n or any(c not in "01" for c in x):
            raise ValueError(f"bad bit string {x!r} in {path}")
        y = int(row["y"])
        if not 1 <= y <= n:
            raise ValueError(f"setting index {y} out of range 1..{n} in {path}")
        if (x, y) in seen:
            raise ValueError(f"duplicate entry for x={x}, y={y} in {path}")
        seen.add((x, y))
        for k, name in enumerate(columns):
            values[k, int(x, 2), y - 1] = float(row[name])
    return MarginalTable(n=n, win=values[0], sigma=values[1] if len(columns) > 1 else None)


def _table_rows(*columns):
    """Long-format rows [x, y, repr(c[ix, y - 1]) for each column c]: x in binary order, then y = 1..n."""
    n = columns[0].shape[1]
    cells = zip(*(map(repr, c.ravel().tolist()) for c in columns))  # row-major order: x, then y
    return ([x, y, *next(cells)] for x in all_bit_strings(n) for y in range(1, n + 1))


def _write_csv(path, header, rows) -> None:
    """The package's one CSV writer: a header, then the rows."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_marginal_csv(table: MarginalTable, path) -> None:
    columns = (table.win,) if table.sigma is None else (table.win, table.sigma)
    _write_csv(path, ["x", "y", "p_win", "sigma"][: 2 + len(columns)], _table_rows(*columns))
