import numpy as np
import pytest

from seqcontext.operators import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    build_observables,
    identity,
    is_density_matrix,
    is_hermitian,
    is_positive_semidefinite,
    tensor_product,
    verify_anticommutation,
)


def test_pauli_conventions():
    assert SIGMA_Y[0, 1] == -1j
    assert SIGMA_Y[1, 0] == 1j
    np.testing.assert_array_equal(SIGMA_X @ SIGMA_X, IDENTITY_2)
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


def test_tensor_product_identity_case():
    np.testing.assert_array_equal(tensor_product(IDENTITY_2, IDENTITY_2), identity(4))


def test_tensor_product_block_structure():
    # left factor indexes blocks: sigma_z x sigma_x = diag(sigma_x, -sigma_x)
    result = tensor_product(SIGMA_Z, SIGMA_X)
    np.testing.assert_array_equal(result[:2, :2], SIGMA_X)
    np.testing.assert_array_equal(result[2:, 2:], -SIGMA_X)
    np.testing.assert_array_equal(result[:2, 2:], np.zeros((2, 2)))


def test_tensor_product_dimensions():
    a = np.ones((2, 2))
    b = np.ones((4, 4))
    assert tensor_product(a, b).shape == (8, 8)


def test_tensor_product_associative():
    # integer-valued entries make the float products exact, so equality is bitwise
    rng = np.random.default_rng(11)
    a = rng.integers(-5, 6, size=(2, 2)) + 1j * rng.integers(-5, 6, size=(2, 2))
    b = rng.integers(-5, 6, size=(3, 3)) + 1j * rng.integers(-5, 6, size=(3, 3))
    c = rng.integers(-5, 6, size=(2, 2)) + 1j * rng.integers(-5, 6, size=(2, 2))
    np.testing.assert_array_equal(
        tensor_product(tensor_product(a, b), c), tensor_product(a, tensor_product(b, c))
    )


def test_tensor_product_rejects_nonsquare():
    with pytest.raises(ValueError):
        tensor_product(np.ones((2, 3)), IDENTITY_2)


def test_base_families():
    two = build_observables(2)
    np.testing.assert_array_equal(two.observables[0], SIGMA_X)
    np.testing.assert_array_equal(two.observables[1], SIGMA_Y)
    assert two.dim == 2

    three = build_observables(3)
    np.testing.assert_array_equal(three.observables[2], SIGMA_Z)
    assert three.dim == 2


def test_family_n4_expansion():
    # hand expansion of the recursion for n=4
    four = build_observables(4)
    assert four.dim == 4
    np.testing.assert_array_equal(four.observables[0], np.kron(SIGMA_X, SIGMA_X))
    np.testing.assert_array_equal(four.observables[1], np.kron(SIGMA_Y, SIGMA_X))
    np.testing.assert_array_equal(four.observables[2], np.kron(SIGMA_Z, SIGMA_X))
    np.testing.assert_array_equal(four.observables[3], np.kron(IDENTITY_2, SIGMA_Y))


@pytest.mark.parametrize("n", range(2, 11))
def test_family_algebra(n):
    family = build_observables(n)
    assert family.dim == 2 ** (n // 2)
    assert len(family.observables) == n
    for g in family:
        assert is_hermitian(g)
        assert abs(np.trace(g)) <= 1e-12
        np.testing.assert_allclose(g @ g, identity(family.dim), atol=1e-12)
    report = verify_anticommutation(family)
    assert report.ok, report


def test_verify_anticommutation_detects_failure():
    good = build_observables(2)
    broken = type(good)(n=2, dim=2, observables=(SIGMA_X, SIGMA_X))
    report = verify_anticommutation(broken)
    assert not report.ok
    # off-diagonal anticommutator is 2*sigma_x^2 = 2*identity
    assert report.max_residual == pytest.approx(2.0)
    assert report.worst_pair == (1, 2)



@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_observable_set_holds_one_read_only_stack(n):
    family = build_observables(n)
    assert family.stack.shape == (n, family.dim, family.dim) and not family.stack.flags.writeable
    for y, g in enumerate(family.observables):
        assert g.base is family.stack and not g.flags.writeable
        assert g.tobytes() == family.stack[y].tobytes()
    with pytest.raises(ValueError):
        family.observable(1)[0, 0] = 0.0
    # a set built by hand stacks its own copy
    own = type(family)(n=2, dim=2, observables=(SIGMA_X, SIGMA_Z))
    assert own.stack.tobytes() == np.stack([SIGMA_X, SIGMA_Z]).tobytes() and own.observables[1].base is own.stack

def test_observable_accessor_bounds():
    family = build_observables(3)
    np.testing.assert_array_equal(family.observable(1), SIGMA_X)
    with pytest.raises(ValueError):
        family.observable(0)
    with pytest.raises(ValueError):
        family.observable(4)


@pytest.mark.parametrize("bad", [1, 0, -3, 3.0, True, 2.5])
def test_build_observables_rejects_small_n(bad):
    # non-integers must not reach the cache and come back as the set for int(n)
    with pytest.raises(ValueError):
        build_observables(bad)


def test_build_observables_returns_the_cached_set():
    assert build_observables(5) is build_observables(5)


def test_predicates_hold_on_a_stack_only_when_every_slice_does():
    stack = np.stack([np.diag([1.0, 0.0]), np.eye(2) / 2, SIGMA_X])
    assert is_hermitian(stack) and not is_positive_semidefinite(stack)
    assert is_positive_semidefinite(stack[:2])
    stack[1, 0, 1] = 0.5
    assert not is_hermitian(stack)


def test_predicates_on_non_examples():
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))
    assert not is_positive_semidefinite(-np.eye(2))
    assert is_positive_semidefinite(np.diag([1.0, 0.0]))


def _eigvalsh_decision(m, tol):
    # The rule the Cholesky screen must reproduce: Hermitian, then the smallest eigenvalue alone.
    return is_hermitian(m, max(tol, 1e-12)) and bool(np.linalg.eigvalsh(m).min(initial=np.inf) >= -tol)


def _with_smallest_eigenvalue(rng, d, smallest):
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(raw)
    lam = rng.uniform(0.0, 1.0, size=d)
    lam[0] = smallest
    if d > 2:
        lam[1] = 0.0
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("f", [0.5, 0.999, 0.999999, 1.0, 1.000001, 1.001, 2.0])
@pytest.mark.parametrize("tol", [1e-10, 1e-8])
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_cholesky_screen_decides_like_eigvalsh(d, tol, f):
    rng = np.random.default_rng([d, int(-np.log10(tol)), int(f * 1e6)])
    matrices = [_with_smallest_eigenvalue(rng, d, -f * tol) for _ in range(20)]
    decisions = [is_positive_semidefinite(m, tol) for m in matrices]
    assert decisions == [_eigvalsh_decision(m, tol) for m in matrices]
    if f in (0.5, 0.999, 1.001, 2.0):  # far enough from -tol that rounding cannot flip the answer
        assert decisions == [f < 1.0] * len(matrices)
    stack = np.stack(matrices)
    assert is_positive_semidefinite(stack, tol) == all(decisions)


def test_cholesky_screen_on_stacks_singular_matrices_and_nan():
    rng = np.random.default_rng(5)
    good = np.stack([_with_smallest_eigenvalue(rng, 4, 0.0) for _ in range(8)])
    assert is_positive_semidefinite(good)
    bad = good.copy()
    bad[6] = _with_smallest_eigenvalue(rng, 4, -2e-10)
    assert not is_positive_semidefinite(bad) and not _eigvalsh_decision(bad, 1e-10)
    assert is_positive_semidefinite(np.delete(bad, 6, axis=0))
    # tol = 0 skips the screen: exactly what eigvalsh says, on exact and rounded singular matrices.
    for m in (np.diag([1.0, 0.0]), good[0], np.zeros((3, 3))):
        assert is_positive_semidefinite(m, 0.0) == _eigvalsh_decision(m, 0.0)
    assert is_positive_semidefinite(np.diag([1.0, 0.0]), 0.0)
    nan = good.copy()
    nan[2, 1, 1] = np.nan
    assert not is_positive_semidefinite(nan) and not is_positive_semidefinite(nan[2])


# The predicates as they read before each converted its input once, for the decision test below.
def _old_is_hermitian(matrix, tol=1e-12):
    m = np.asarray(matrix, dtype=complex)
    return bool(abs(m - m.swapaxes(-1, -2).conj()).max(initial=0.0) <= tol)


def _old_is_positive_semidefinite(matrix, tol=1e-10):
    m = np.asarray(matrix, dtype=complex)
    if not _old_is_hermitian(m, max(tol, 1e-12)):
        return False
    if tol > 0:
        try:
            np.linalg.cholesky(m + (tol / 2) * np.eye(m.shape[-1]))
            return True
        except np.linalg.LinAlgError:
            pass
    return bool(np.linalg.eigvalsh(m).min(initial=np.inf) >= -tol)


def _old_is_density_matrix(matrix, tol=1e-10):
    m = np.asarray(matrix, dtype=complex)
    if abs(m.trace(axis1=-2, axis2=-1) - 1.0).max(initial=0.0) > tol:
        return False
    return _old_is_positive_semidefinite(m, tol)


def _boundary_cases(d, tol, rng):
    """Density matrices pushed to each of the checks' edges: trace off by about +-tol, a Hermitian
    defect of about +-tol, lambda_min near -tol/2, and NaN entries."""
    unitary, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    cases = [np.eye(d) / d]
    for f in (0.5, 0.999999, 1.0, 1.000001, 2.0):
        for sign in (1.0, -1.0):
            trace_off = unitary @ np.diag(np.full(d, 1.0 / d)) @ unitary.conj().T
            trace_off[0, 0] += sign * f * tol
            cases.append(trace_off)
            defect = unitary @ np.diag(np.full(d, 1.0 / d)) @ unitary.conj().T
            defect[0, 1] += sign * f * tol
            cases.append(defect)
            defect = defect.copy()
            defect[1, 0] += 1j * sign * f * tol
            cases.append(defect)
        for g in (f, 2.0 * f, 0.25 * f):
            # smallest eigenvalue -g tol / 2, trace 1
            eigenvalues = np.full(d, (1.0 + g * tol / 2) / (d - 1))
            eigenvalues[0] = -g * tol / 2
            cases.append(unitary @ np.diag(eigenvalues) @ unitary.conj().T)
    for entry in ((0, 0), (0, 1), (d - 1, 0)):
        nan = unitary @ np.diag(np.full(d, 1.0 / d)) @ unitary.conj().T
        nan[entry] = np.nan
        cases.append(nan)
    return cases


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 0.0])
def test_predicates_decide_as_before_on_single_matrices_and_stacks(d, tol):
    cases = _boundary_cases(d, tol if tol else 1e-10, np.random.default_rng(20261019 + d))
    for m in cases:
        for s in (m, np.stack([np.eye(d) / d, m]), m[None, None]):
            assert is_hermitian(s, max(tol, 1e-12)) == _old_is_hermitian(s, max(tol, 1e-12))
            assert is_positive_semidefinite(s, tol) == _old_is_positive_semidefinite(s, tol)
            assert is_density_matrix(s, tol) == _old_is_density_matrix(s, tol)
    stack = np.stack(cases)
    assert is_density_matrix(stack, tol) == _old_is_density_matrix(stack, tol)
    assert is_density_matrix(stack[:0], tol) == _old_is_density_matrix(stack[:0], tol)
    # the edges are exercised: every one of the three predicates both holds and fails somewhere
    assert len({is_hermitian(m, max(tol, 1e-12)) for m in cases}) == 2
    for new in (is_positive_semidefinite, is_density_matrix):
        assert len({new(m, tol) for m in cases}) == 2
