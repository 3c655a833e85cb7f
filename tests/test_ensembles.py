import numpy as np
import pytest

from seqcontext.ensembles import (
    Ensemble,
    Preparation,
    all_bit_strings,
    build_ensemble,
    build_preparation,
    check_operational_equivalence,
    parity_signs,
    parity_strings,
    partial_trace_construction,
    signed_observable_sum,
)
from seqcontext.operators import SIGMA_X, SIGMA_Y, SIGMA_Z, build_observables, identity

SQRT3 = np.sqrt(3.0)


def bloch_vector(rho):
    return np.array([np.real(np.trace(rho @ s)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def test_parity_strings():
    assert parity_strings(3) == ["011", "101", "110", "111"]
    assert parity_strings(2) == ["11"]
    assert len(parity_strings(4)) == 2**4 - 4 - 1


@pytest.mark.parametrize("n", range(1, 11))
def test_parity_signs_match_popcount_definition(n):
    signs = parity_signs(n)
    size = 2**n
    expected = np.array([[(-1.0) ** bin(r & x).count("1") for x in range(size)] for r in range(size)])
    np.testing.assert_array_equal(signs, expected)
    np.testing.assert_array_equal(signs @ signs, size * np.eye(size))


def test_preparation_bloch_vectors_n3():
    rho = build_preparation(3, "000", 1.0).rho
    np.testing.assert_allclose(bloch_vector(rho), np.array([1, 1, 1]) / SQRT3, atol=1e-14)
    rho = build_preparation(3, "101", 1.0).rho
    np.testing.assert_allclose(bloch_vector(rho), np.array([-1, 1, -1]) / SQRT3, atol=1e-14)


@pytest.mark.parametrize("n,x", [(2, "01"), (3, "110"), (4, "1010"), (5, "00111")])
def test_full_depolarization(n, x):
    prep = build_preparation(n, x, 0.0)
    dim = prep.rho.shape[0]
    np.testing.assert_allclose(prep.rho, identity(dim) / dim, atol=1e-15)


def test_ensemble_n2_antipodal_plane():
    ensemble = build_ensemble(2, 1.0)
    vectors = {p.x: bloch_vector(p.rho) for p in ensemble.preparations}
    for x, v in vectors.items():
        assert v[2] == pytest.approx(0.0, abs=1e-14)  # x-y plane
        assert np.linalg.norm(v) == pytest.approx(1.0)  # pure
        flipped = "".join("1" if c == "0" else "0" for c in x)
        np.testing.assert_allclose(v, -vectors[flipped], atol=1e-14)


def test_ensemble_bloch_radius_scales_with_visibility():
    ensemble = build_ensemble(3, 0.5)
    for prep in ensemble.preparations:
        assert np.linalg.norm(bloch_vector(prep.rho)) == pytest.approx(0.5)


@pytest.mark.parametrize("n", range(2, 7))
def test_signed_sum_squares_to_identity(n):
    obs = build_observables(n)
    for x in all_bit_strings(n):
        a = signed_observable_sum(obs, x)
        np.testing.assert_allclose(a @ a, identity(obs.dim), atol=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_projector_law_at_full_visibility(n):
    # (1 + A_x)/dim is proportional to a projector: rho^2 = (2/dim) rho.
    # For dim 2 (n = 2, 3) this is purity.
    for x in all_bit_strings(n):
        rho = build_preparation(n, x, 1.0).rho
        dim = rho.shape[0]
        np.testing.assert_allclose(rho @ rho, (2.0 / dim) * rho, atol=1e-12)


@pytest.mark.parametrize("n,q", [(2, 1.0), (3, 0.7), (4, 0.25), (5, 1.0)])
def test_preparations_are_states(n, q):
    ensemble = build_ensemble(n, q)
    for prep in ensemble.preparations:
        assert np.trace(prep.rho) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(prep.rho, prep.rho.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(prep.rho)[0] >= -1e-10


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
def test_ensemble_average_is_mixed_state(q):
    ensemble = build_ensemble(3, q)
    avg = sum(p.rho for p in ensemble.preparations) / len(ensemble.preparations)
    np.testing.assert_allclose(avg, ensemble.mix, atol=1e-12)


def test_build_preparation_validates_input():
    with pytest.raises(ValueError):
        build_preparation(3, "00", 1.0)
    with pytest.raises(ValueError):
        build_preparation(3, "002", 1.0)
    with pytest.raises(ValueError):
        build_preparation(3, "000", 1.5)


def test_partial_trace_frozen_case_n2():
    # hand-evaluated: transpose flips the sign of sigma_y only
    expected = (identity(2) + (SIGMA_X - SIGMA_Y) / np.sqrt(2.0)) / 2.0
    np.testing.assert_allclose(partial_trace_construction(2, "00"), expected, atol=1e-14)


@pytest.mark.parametrize("n", range(2, 9))
def test_partial_trace_transpose_identity(n):
    for x in all_bit_strings(n):
        direct = build_preparation(n, x, 1.0).rho
        via_pairs = partial_trace_construction(n, x)
        np.testing.assert_allclose(via_pairs.T, direct, atol=1e-12)
        assert np.trace(via_pairs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,q", [(3, 1.0), (4, 0.3)])
def test_operational_equivalence_holds_by_construction(n, q):
    report = check_operational_equivalence(build_ensemble(n, q), tol=1e-10)
    assert report.passed
    assert report.residual < 1e-12


def test_operational_equivalence_detects_tampering():
    ensemble = build_ensemble(3, 1.0)
    tampered = list(ensemble.preparations)
    tampered[0] = Preparation(x="000", rho=ensemble.mix)
    broken = Ensemble(n=3, q=1.0, preparations=tuple(tampered), mix=ensemble.mix)
    report = check_operational_equivalence(broken, tol=1e-10)
    assert not report.passed
    assert report.worst_r in parity_strings(3)
    assert report.residual > 1e-3
