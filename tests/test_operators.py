import numpy as np
import pytest

from seqcontext.operators import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    build_observables,
    identity,
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
