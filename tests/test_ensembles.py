import numpy as np
import pytest

from seqcontext import ensembles
from seqcontext.ensembles import (
    all_bit_strings,
    build_ensemble,
    build_preparation,
    check_operational_equivalence,
    constraint_signs,
    parity_signs,
    partial_trace_construction,
    setting_signs,
    signed_observable_sum,
)
from seqcontext.operators import SIGMA_X, SIGMA_Y, SIGMA_Z, build_observables, identity
from seqcontext.sequence import evolve_average

SQRT3 = np.sqrt(3.0)


def bloch_vector(rho):
    return np.array([np.real(np.trace(rho @ s)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def test_constraint_signs_are_the_hidden_parity_rows():
    np.testing.assert_array_equal(constraint_signs(2), [[1, -1, -1, 1]])
    np.testing.assert_array_equal(
        constraint_signs(3),
        [
            [1, -1, -1, 1, 1, -1, -1, 1],  # r = 011
            [1, -1, 1, -1, -1, 1, -1, 1],  # r = 101
            [1, 1, -1, -1, -1, -1, 1, 1],  # r = 110
            [1, -1, -1, 1, -1, 1, 1, -1],  # r = 111
        ],
    )
    for n in range(1, 11):
        hidden = [r for r in range(2**n) if bin(r).count("1") >= 2]
        assert len(hidden) == 2**n - n - 1
        assert np.array_equal(constraint_signs(n), parity_signs(n)[hidden])


@pytest.mark.parametrize("n", range(1, 11))
def test_parity_signs_match_popcount_definition(n):
    signs = parity_signs(n)
    size = 2**n
    expected = np.array([[(-1.0) ** bin(r & x).count("1") for x in range(size)] for r in range(size)])
    np.testing.assert_array_equal(signs, expected)
    np.testing.assert_array_equal(signs @ signs, size * np.eye(size))


@pytest.mark.parametrize("n", range(1, 11))
def test_setting_signs_are_the_weight_one_rows_of_parity_signs(n):
    expected = parity_signs(n)[[2 ** (n - 1 - y) for y in range(n)]]
    assert np.array_equal(setting_signs(n), expected)


@pytest.mark.parametrize("n", range(2, 12))
def test_build_ensemble_stack_is_bit_equal_to_build_preparation(n):
    for q in (1.0, 0.6441, 0.123456789):
        stack = build_ensemble(n, q)
        assert stack.shape == (2**n, 2 ** (n // 2), 2 ** (n // 2))
        assert np.array_equal(stack, np.array([build_preparation(n, x, q) for x in all_bit_strings(n)]))


def test_build_ensemble_is_bit_equal_to_build_preparation_with_its_cache_cold_and_warm():
    for n in (2, 5, 3):
        preparations = {q: [build_preparation(n, x, q) for x in all_bit_strings(n)] for q in (1.0, 0.83, 0.31, 0.0)}
        for cold in (True, False):
            for q, expected in preparations.items():
                if cold:
                    ensembles._signed_sums.cache_clear()
                stack = build_ensemble(n, q)
                assert stack.flags.writeable
                assert [state.tobytes() for state in stack] == [state.tobytes() for state in expected]
                # the stack is the caller's own: writing into it leaves the next call unchanged
                stack[:] = np.nan
                assert build_ensemble(n, q).tobytes() == np.array(expected).tobytes()
    sums = ensembles._signed_sums(3)
    assert not sums.flags.writeable
    with pytest.raises(ValueError):
        build_ensemble(3.0, 0.5)  # a warm n = 3 entry does not let n = 3.0 past build_observables
    with pytest.raises(ValueError):
        sums[0, 0, 0] = 0.0



def _running_sum_preparation(n, x, q):
    # build_preparation as it read before the one-reduce signed sum, for the bit-identity test below
    obs = build_observables(n)
    acc = np.zeros((obs.dim, obs.dim), dtype=complex)
    for bit, g in zip(x, obs.observables):
        acc += (-1.0 if bit == "1" else 1.0) * g
    return (identity(obs.dim) + q * (acc / np.sqrt(n))) / obs.dim


@pytest.mark.parametrize("n", range(2, 12))
def test_build_preparation_is_bit_equal_to_a_running_sum(n):
    rng = np.random.default_rng(20261019 + n)
    strings = ["0" * n, "1" * n, ("01" * n)[:n], *(format(int(i), f"0{n}b") for i in rng.integers(2**n, size=4))]
    for q in (0.0, 1.0, 0.6441, 0.31, *rng.uniform(0.0, 1.0, size=2).tolist()):
        for x in strings:
            assert build_preparation(n, x, q).tobytes() == _running_sum_preparation(n, x, q).tobytes()

def test_build_ensemble_validates_q():
    with pytest.raises(ValueError):
        build_ensemble(3, 1.5)


def test_preparation_bloch_vectors_n3():
    rho = build_preparation(3, "000", 1.0)
    np.testing.assert_allclose(bloch_vector(rho), np.array([1, 1, 1]) / SQRT3, atol=1e-14)
    rho = build_preparation(3, "101", 1.0)
    np.testing.assert_allclose(bloch_vector(rho), np.array([-1, 1, -1]) / SQRT3, atol=1e-14)


@pytest.mark.parametrize("n,x", [(2, "01"), (3, "110"), (4, "1010"), (5, "00111")])
def test_full_depolarization(n, x):
    rho = build_preparation(n, x, 0.0)
    dim = rho.shape[0]
    np.testing.assert_allclose(rho, identity(dim) / dim, atol=1e-15)


def test_ensemble_n2_antipodal_plane():
    vectors = {x: bloch_vector(rho) for x, rho in zip(all_bit_strings(2), build_ensemble(2, 1.0))}
    for x, v in vectors.items():
        assert v[2] == pytest.approx(0.0, abs=1e-14)  # x-y plane
        assert np.linalg.norm(v) == pytest.approx(1.0)  # pure
        flipped = "".join("1" if c == "0" else "0" for c in x)
        np.testing.assert_allclose(v, -vectors[flipped], atol=1e-14)


def test_ensemble_bloch_radius_scales_with_visibility():
    for rho in build_ensemble(3, 0.5):
        assert np.linalg.norm(bloch_vector(rho)) == pytest.approx(0.5)


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
        rho = build_preparation(n, x, 1.0)
        dim = rho.shape[0]
        np.testing.assert_allclose(rho @ rho, (2.0 / dim) * rho, atol=1e-12)


@pytest.mark.parametrize("n,q", [(2, 1.0), (3, 0.7), (4, 0.25), (5, 1.0)])
def test_preparations_are_states(n, q):
    for rho in build_ensemble(n, q):
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
def test_ensemble_average_is_mixed_state(q):
    states = build_ensemble(3, q)
    avg = sum(states) / len(states)
    np.testing.assert_allclose(avg, identity(2) / 2, atol=1e-12)


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
        direct = build_preparation(n, x, 1.0)
        via_pairs = partial_trace_construction(n, x)
        np.testing.assert_allclose(via_pairs.T, direct, atol=1e-12)
        assert np.trace(via_pairs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,q", [(3, 1.0), (4, 0.3)])
def test_operational_equivalence_holds_by_construction(n, q):
    report = check_operational_equivalence(build_ensemble(n, q))
    assert report.passed
    assert report.residual < 1e-12


def test_operational_equivalence_detects_tampering():
    broken = build_ensemble(3, 1.0)
    broken[0] = identity(2) / 2
    report = check_operational_equivalence(broken)
    assert not report.passed
    assert report.worst_r in ["011", "101", "110", "111"]
    assert report.residual > 1e-3


def per_state_equivalence(states):
    """The reference check: add each state into its even or odd sum one at a time, per hidden parity."""
    n = len(states).bit_length() - 1
    signs = parity_signs(n)
    worst, worst_r = 0.0, ""
    for r in [r for r in all_bit_strings(n) if r.count("1") >= 2]:
        even = np.zeros_like(states[0], dtype=complex)
        odd = np.zeros_like(states[0], dtype=complex)
        for sign, rho in zip(signs[int(r, 2)], states):
            if sign > 0:
                even += rho
            else:
                odd += rho
        residual = float(np.max(np.abs(even - odd)))
        if residual > worst or not worst_r:
            worst, worst_r = residual, r
    return worst_r, worst


@pytest.mark.parametrize("n", range(2, 8))
def test_operational_equivalence_matches_the_per_state_loop(n):
    rng = np.random.default_rng(20261018 + n)
    cases = []
    for _ in range(10):
        evolved = evolve_average(build_ensemble(n, rng.uniform(0.0, 1.0)), rng.uniform(0.0, 1.0), n)
        cases.append(evolved)
        tampered = evolved.copy()
        x = rng.integers(2**n)
        tampered[x] = tampered[x] + rng.uniform(-1e-3, 1e-3) * build_observables(n).observables[rng.integers(n)]
        cases.append(tampered)
    reports = [check_operational_equivalence(states) for states in cases]
    for states, report in zip(cases, reports):
        assert (report.worst_r, report.residual) == per_state_equivalence(states)
    assert [report.passed for report in reports] == [True, False] * 10


@pytest.mark.parametrize("count", [0, 1, 2, 6])
def test_operational_equivalence_rejects_a_list_of_other_than_2n_states(count):
    with pytest.raises(ValueError):
        check_operational_equivalence([identity(2) / 2] * count)
