import numpy as np
import pytest

from seqcontext import selfcheck
from seqcontext.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    STATE_TOL,
    build_observables,
    identity,
    is_density_matrix,
)


def test_pauli_conventions():
    assert SIGMA_Y[0, 1] == -1j
    assert SIGMA_Y[1, 0] == 1j
    np.testing.assert_array_equal(SIGMA_X @ SIGMA_X, np.eye(2))
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


def test_base_families():
    two = build_observables(2)
    np.testing.assert_array_equal(two, [SIGMA_X, SIGMA_Y])

    three = build_observables(3)
    np.testing.assert_array_equal(three, [SIGMA_X, SIGMA_Y, SIGMA_Z])


def test_family_n4_expansion():
    # hand expansion of the recursion for n=4
    four = build_observables(4)
    assert four.shape == (4, 4, 4)
    np.testing.assert_array_equal(four[0], np.kron(SIGMA_X, SIGMA_X))
    np.testing.assert_array_equal(four[1], np.kron(SIGMA_Y, SIGMA_X))
    np.testing.assert_array_equal(four[2], np.kron(SIGMA_Z, SIGMA_X))
    np.testing.assert_array_equal(four[3], np.kron(np.eye(2), SIGMA_Y))


def test_tensor_product_block_structure():
    # the family's Kronecker products put the left factor on the blocks:
    # sigma_z x sigma_x = diag(sigma_x, -sigma_x)
    result = build_observables(4)[2]
    np.testing.assert_array_equal(result[:2, :2], SIGMA_X)
    np.testing.assert_array_equal(result[2:, 2:], -SIGMA_X)
    np.testing.assert_array_equal(result[:2, 2:], np.zeros((2, 2)))


@pytest.mark.parametrize("n", range(2, 11))
def test_family_algebra(n):
    family = build_observables(n)
    dim = 2 ** (n // 2)
    assert family.shape == (n, dim, dim)
    for g in family:
        np.testing.assert_array_equal(g, g.conj().T)
        assert abs(np.trace(g)) <= 1e-12
        np.testing.assert_allclose(g @ g, identity(dim), atol=1e-12)
    anti = family[:, None] @ family[None] + family[None] @ family[:, None]
    expected = 2.0 * np.eye(n)[:, :, None, None] * identity(dim)
    np.testing.assert_allclose(anti, expected, atol=1e-12)


def test_verify_anticommutation_detects_failure(monkeypatch):
    # verify's anticommutation check on a family whose two observables commute
    broken = np.stack([SIGMA_X, SIGMA_X])
    broken.setflags(write=False)
    monkeypatch.setattr(selfcheck, "build_observables", lambda n: broken if n == 3 else build_observables(n))
    result = selfcheck.check_anticommutation()
    assert not result.ok
    # off-diagonal anticommutator is 2*sigma_x^2 = 2*identity
    assert result.detail == "n=3: residual 2.000e+00 at pair (1, 2)"


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_observable_set_holds_one_read_only_stack(n):
    # build_observables returns the family as one cached, read-only (n, dim, dim) array
    family = build_observables(n)
    dim = 2 ** (n // 2)
    assert type(family) is np.ndarray and family.shape == (n, dim, dim) and family.dtype == complex
    assert not family.flags.writeable
    with pytest.raises(ValueError):
        family[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        family[n - 1][0, 0] = 0.0  # a setting's observable is a read-only view
    assert build_observables(n) is family and build_observables(np.int64(n)) is family


@pytest.mark.parametrize("bad", [1, 0, -3, 3.0, True, 2.5])
def test_build_observables_rejects_small_n(bad):
    # non-integers must not reach the cache and come back as the set for int(n)
    with pytest.raises(ValueError):
        build_observables(bad)


def test_build_observables_returns_the_cached_set():
    assert build_observables(5) is build_observables(5)


def test_predicates_on_non_examples():
    assert not is_density_matrix(np.array([[0.5, 1], [0, 0.5]]))  # not Hermitian
    assert not is_density_matrix(np.diag([2.0, -1.0]))  # an eigenvalue below -STATE_TOL
    assert not is_density_matrix(np.eye(2))  # trace 2
    assert is_density_matrix(np.diag([1.0, 0.0]))
    assert is_density_matrix(np.diag([0.5 + 5e-9, 0.5]))  # trace 1 + 5e-9, within STATE_TOL = 1e-8
    assert not is_density_matrix(np.diag([0.5 + 2e-8, 0.5]))  # trace 1 + 2e-8


def test_tensor_product_rejects_nonsquare():
    # the state check takes one (d, d) matrix and rejects anything else
    for not_square in (np.ones((2, 3)), np.ones(4), np.ones((5, 2, 3)), np.ones((1, 2, 2))):
        with pytest.raises(ValueError, match="must be a"):
            is_density_matrix(not_square)


def _eigvalsh_decision(m):
    # The rule the Cholesky screen must reproduce: trace and Hermitian defect, then the smallest eigenvalue alone.
    m = np.asarray(m, dtype=complex)
    return bool(
        abs(m.trace() - 1.0) <= STATE_TOL
        and abs(m - m.conj().T).max() <= STATE_TOL
        and np.linalg.eigvalsh(m).min() >= -STATE_TOL
    )


def _with_smallest_eigenvalue(rng, d, smallest):
    # Trace 1; for d > 2 the second eigenvalue is 0, so the matrix is near-singular too.
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rest = rng.uniform(0.0, 1.0, size=d - 1)
    if d > 2:
        rest[0] = 0.0
    lam = np.concatenate([[smallest], rest * (1.0 - smallest) / rest.sum()])
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


# The smallest eigenvalue is -f * scale: scale = STATE_TOL straddles the check's edge, and
# scale = 1e-10 gives the slightly negative eigenvalues of rounded states, which must pass.
@pytest.mark.parametrize("f", [0.5, 0.999, 0.999999, 1.0, 1.000001, 1.001, 2.0])
@pytest.mark.parametrize("scale", [1e-10, 1e-8])
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_cholesky_screen_decides_like_eigvalsh(d, scale, f):
    rng = np.random.default_rng([d, int(-np.log10(scale)), int(f * 1e6)])
    matrices = [_with_smallest_eigenvalue(rng, d, -f * scale) for _ in range(20)]
    decisions = [is_density_matrix(m) for m in matrices]
    assert decisions == [_eigvalsh_decision(m) for m in matrices]
    if f in (0.5, 0.999, 1.001, 2.0):  # far enough from -STATE_TOL that rounding cannot flip the answer
        assert decisions == [f * scale < STATE_TOL] * len(matrices)


def _boundary_cases(d, scale, rng):
    """Density matrices pushed by about +-scale: trace off by it, a Hermitian defect of it,
    lambda_min near -scale/2; and NaN entries. scale = STATE_TOL puts them on the check's edges."""
    unitary, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    cases = [np.eye(d) / d]
    for f in (0.5, 0.999999, 1.0, 1.000001, 2.0):
        for sign in (1.0, -1.0):
            trace_off = unitary @ np.diag(np.full(d, 1.0 / d)) @ unitary.conj().T
            trace_off[0, 0] += sign * f * scale
            cases.append(trace_off)
            defect = unitary @ np.diag(np.full(d, 1.0 / d)) @ unitary.conj().T
            defect[0, 1] += sign * f * scale
            cases.append(defect)
            defect = defect.copy()
            defect[1, 0] += 1j * sign * f * scale
            cases.append(defect)
        for g in (f, 2.0 * f, 0.25 * f):
            # smallest eigenvalue -g scale / 2, trace 1
            eigenvalues = np.full(d, (1.0 + g * scale / 2) / (d - 1))
            eigenvalues[0] = -g * scale / 2
            cases.append(unitary @ np.diag(eigenvalues) @ unitary.conj().T)
    for entry in ((0, 0), (0, 1), (d - 1, 0)):
        nan = unitary @ np.diag(np.full(d, 1.0 / d)) @ unitary.conj().T
        nan[entry] = np.nan
        cases.append(nan)
    return cases


# scale = STATE_TOL puts the cases on the check's edges; the smaller scales and 0.0 (exact and singular
# states) give the rounding-level defects every simulated state carries, which must pass.
@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("scale", [1e-8, 1e-10, 1e-12, 0.0])
def test_predicates_decide_as_before_on_single_matrices_and_stacks(d, scale):
    cases = _boundary_cases(d, scale, np.random.default_rng(20261019 + d))
    for m in cases:
        assert is_density_matrix(m) == _eigvalsh_decision(m)
    # After cases[0], each f adds 9 cases: trace (offsets 0, 3), Hermitian defect (1, 2, 4, 5), lambda_min (6, 7, 8).
    # At STATE_TOL each of the three tests both holds and fails somewhere; below it every non-NaN case passes.
    for offsets in ((0, 3), (1, 2, 4, 5), (6, 7, 8)):
        decisions = {is_density_matrix(cases[1 + 9 * k + o]) for k in range(5) for o in offsets}
        assert decisions == ({True, False} if scale == STATE_TOL else {True})
