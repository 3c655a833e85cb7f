import numpy as np
import pytest

from seqcontext import ensembles, operators, sequence
from seqcontext.ensembles import all_bit_strings, build_ensemble, build_preparation
from seqcontext.operators import MAX_DENSE_N, SIGMA_X, build_observables, identity, is_density_matrix
from seqcontext.sequence import (
    MarginalTable,
    UnsharpSetting,
    closed_form_witness,
    evolve_average,
    kraus_operator,
    marginal_probability,
    noncontextual_bound,
    povm_element,
    quality_factor,
    read_marginal_csv,
    run_sequence,
    theta_to_eta,
    visibility_chain,
    witness,
    write_marginal_csv,
)

# independently derived from the quality-factor formula (see scratch oracles)
F_3_06441 = 0.843294198934258
MAX_WITNESS_3 = 0.7886751345948129


def projector(setting: UnsharpSetting) -> np.ndarray:
    """Sharp projector (1 + (-1)^b G_y) / 2 onto the outcome-b eigenspace: the oracle for eta = 1."""
    g = build_observables(setting.n)[setting.y - 1]
    return (identity(g.shape[-1]) + (-1.0 if setting.b else 1.0) * g) / 2.0


def test_setting_validation():
    with pytest.raises(ValueError):
        UnsharpSetting(n=3, y=0, b=0, eta=0.5)
    with pytest.raises(ValueError):
        UnsharpSetting(n=3, y=4, b=0, eta=0.5)
    with pytest.raises(ValueError):
        UnsharpSetting(n=3, y=1, b=2, eta=0.5)
    with pytest.raises(ValueError):
        UnsharpSetting(n=3, y=1, b=0, eta=1.2)


def test_theta_to_eta():
    assert theta_to_eta(0.0) == 0.0
    assert theta_to_eta(np.pi / 2) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="sin"):
        theta_to_eta(-0.3)
    # math.sin's own "math domain error" for an infinity is a ValueError too, but names no input
    for bad in (np.inf, np.nan, np.array(0.5)):
        with pytest.raises(ValueError, match="theta must be a finite real number"):
            theta_to_eta(bad)


def test_povm_element_limits():
    sharp = povm_element(UnsharpSetting(n=3, y=1, b=0, eta=1.0))
    np.testing.assert_allclose(sharp, projector(UnsharpSetting(n=3, y=1, b=0, eta=1.0)), atol=1e-15)
    flat = povm_element(UnsharpSetting(n=3, y=2, b=1, eta=0.0))
    np.testing.assert_allclose(flat, identity(2) / 2, atol=1e-15)


def test_povm_element_experimental_sharpness():
    element = povm_element(UnsharpSetting(n=3, y=1, b=0, eta=0.6441))
    np.testing.assert_allclose(element, (identity(2) + 0.6441 * SIGMA_X) / 2, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.6441, 1.0])
def test_povm_properties(n, eta):
    dim = build_observables(n).shape[-1]
    for y in range(1, n + 1):
        e0 = povm_element(UnsharpSetting(n=n, y=y, b=0, eta=eta))
        e1 = povm_element(UnsharpSetting(n=n, y=y, b=1, eta=eta))
        np.testing.assert_allclose(e0 + e1, identity(dim), atol=1e-14)
        for e in (e0, e1):
            values = np.linalg.eigvalsh(e)
            assert values[0] >= -1e-14 and values[-1] <= 1 + 1e-14


def test_kraus_limits():
    sharp = kraus_operator(UnsharpSetting(n=3, y=3, b=1, eta=1.0))
    np.testing.assert_allclose(sharp, projector(UnsharpSetting(n=3, y=3, b=1, eta=1.0)), atol=1e-15)
    non_interacting = kraus_operator(UnsharpSetting(n=3, y=3, b=1, eta=0.0))
    np.testing.assert_allclose(non_interacting, identity(2) / np.sqrt(2.0), atol=1e-15)


def test_kraus_experimental_decomposition():
    setting = UnsharpSetting(n=3, y=2, b=1, eta=0.7637)
    keep = projector(setting)
    flip = identity(2) - keep
    expected = np.sqrt(0.88185) * keep + np.sqrt(0.11815) * flip
    np.testing.assert_allclose(kraus_operator(setting), expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 1.0])
def test_kraus_consistency(n, eta):
    dim = build_observables(n).shape[-1]
    for y in range(1, n + 1):
        total = np.zeros((dim, dim), dtype=complex)
        for b in (0, 1):
            setting = UnsharpSetting(n=n, y=y, b=b, eta=eta)
            k = kraus_operator(setting)
            np.testing.assert_allclose(k, k.conj().T, atol=1e-14)
            np.testing.assert_allclose(k.conj().T @ k, povm_element(setting), atol=1e-12)
            total += k.conj().T @ k
        np.testing.assert_allclose(total, identity(dim), atol=1e-12)


def test_evolve_average_trivial_channel():
    rho = build_preparation(3, "010", 0.9)
    np.testing.assert_allclose(evolve_average(rho, 0.0, 3), rho, atol=1e-14)


def test_evolve_average_fixed_point():
    mix = identity(2) / 2
    np.testing.assert_allclose(evolve_average(mix, 0.77, 3), mix, atol=1e-14)


def test_evolve_average_matches_quality_factor():
    rho = build_preparation(3, "000", 1.0)
    mix = identity(2) / 2
    evolved = evolve_average(rho, 0.6441, 3)
    np.testing.assert_allclose(evolved, F_3_06441 * rho + (1 - F_3_06441) * mix, atol=1e-12)


def test_evolve_average_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        dim = build_observables(n).shape[-1]
        for _ in range(5):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = raw @ raw.conj().T
            rho /= np.trace(rho)
            out = evolve_average(rho, float(rng.uniform()), n)
            assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_evolve_average_rejects_non_density_input():
    with pytest.raises(ValueError):
        evolve_average(np.eye(2), 0.5, 3)  # trace 2
    with pytest.raises(ValueError):
        evolve_average(np.array([[1.5, 0], [0, -0.5]]), 0.5, 3)


@pytest.mark.parametrize("n", range(2, 10))
def test_stacked_evolve_average_is_bit_equal_to_the_per_state_loop(n):
    states = build_ensemble(n, 0.83)
    for etas in ([0.6441], [0.37, 0.91]):
        stack, singles = states, list(states)
        for eta in etas:
            stack = evolve_average(stack, eta, n)
            singles = [evolve_average(rho, eta, n) for rho in singles]
            assert np.array_equal(stack, np.array(singles))


def _explicit_kraus_sums(n):
    """(eta, states, expected) cases: each slice alone, sum over (y, b) in order of
    K rho K^dagger, divided by n."""
    seeded = float(np.random.default_rng(1000 + n).uniform())
    for q in (1.0, 0.83, 0.31):
        states = build_ensemble(n, q)
        for eta in (0.0, 0.6441, 1.0, seeded):
            kraus = [kraus_operator(UnsharpSetting(n=n, y=y, b=b, eta=eta)) for y in range(1, n + 1) for b in (0, 1)]
            expected = []
            for rho in states:
                total = np.zeros_like(rho)
                for k in kraus:
                    total += k @ rho @ k.conj().T
                expected.append(total / n)
            yield eta, states, np.array(expected)


@pytest.mark.parametrize("n", range(2, 10))
def test_stacked_evolve_average_is_byte_equal_to_an_explicit_kraus_sum(n):
    for eta, states, expected in _explicit_kraus_sums(n):
        assert evolve_average(states, eta, n).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(2, 10))
def test_single_state_evolve_average_is_byte_equal_to_an_explicit_kraus_sum(n):
    for eta, states, expected in _explicit_kraus_sums(n):
        for ix in (0, 3, len(states) - 1):
            assert evolve_average(states[ix], eta, n).tobytes() == expected[ix].tobytes()


@pytest.mark.parametrize("n", range(2, 10))
def test_unchecked_evolve_core_is_byte_equal_to_evolve_average(n):
    # selfcheck evolves the stacks it builds through the core, without the density-matrix check
    seeded = float(np.random.default_rng(2000 + n).uniform())
    for q in (1.0, 0.83):
        states = build_ensemble(n, q)
        for eta in (0.0, 0.37, 0.6441, 1.0, seeded):
            core, public = sequence._evolve(states, eta, n), evolve_average(states, eta, n)
            assert core.tobytes() == public.tobytes()
            assert sequence._evolve(core, eta, n).tobytes() == evolve_average(public, eta, n).tobytes()
            for ix in (0, len(states) - 1):
                assert sequence._evolve(states[ix], eta, n).tobytes() == evolve_average(states[ix], eta, n).tobytes()


def _with_bad_slice(kind):
    stack = build_ensemble(3, 0.5)
    bad = {
        "trace-2": 2.0 * stack[5],
        "non-hermitian": stack[5] + np.array([[0.0, 0.1], [0.0, 0.0]]),
        "negative-eigenvalue": np.diag([1.5, -0.5]),
    }[kind]
    stack[5] = bad
    return stack


@pytest.mark.parametrize("kind", ["trace-2", "non-hermitian", "negative-eigenvalue"])
def test_one_bad_slice_fails_the_whole_stack(kind):
    stack = _with_bad_slice(kind)
    assert is_density_matrix(np.delete(stack, 5, axis=0))
    assert not is_density_matrix(stack[5])
    assert not is_density_matrix(stack)
    with pytest.raises(ValueError, match="density matrix"):
        evolve_average(stack, 0.5, 3)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 3)])
def test_evolve_average_rejects_arrays_that_are_not_square_stacks(shape):
    with pytest.raises(ValueError):
        is_density_matrix(np.zeros(shape))
    with pytest.raises(ValueError):
        evolve_average(np.zeros(shape), 0.5, 3)


@pytest.mark.parametrize("n", [0, 1, 3.0])
def test_evolve_average_rejects_invalid_n(n):
    with pytest.raises(ValueError):
        evolve_average(identity(2) / 2, 0.5, n)


def test_a_state_of_the_wrong_dimension_is_refused_before_n_instrument_is_built(monkeypatch):
    # n = 14's family takes tens of ms to build; a 2 x 2 state can never meet its 2^7 x 2^7 operators.
    def unreachable(n):
        raise AssertionError(f"the n={n} observable family was built")

    sequence._instrument.cache_clear()
    monkeypatch.setattr(sequence, "build_observables", unreachable)
    both_dimensions = r"n=14 acts on 2\^7 x 2\^7 states, got a state of shape \(2, 2\)"
    with pytest.raises(ValueError, match=both_dimensions):
        evolve_average(identity(2) / 2, 0.5, 14)
    with pytest.raises(ValueError, match=both_dimensions):
        marginal_probability(identity(2) / 2, UnsharpSetting(n=14, y=1, b=0, eta=0.5))


def test_marginal_probability_values():
    rho = build_preparation(3, "000", 1.0)
    sharp = marginal_probability(rho, UnsharpSetting(n=3, y=1, b=0, eta=1.0))
    assert sharp == pytest.approx(MAX_WITNESS_3, abs=1e-12)
    unsharp = marginal_probability(rho, UnsharpSetting(n=3, y=1, b=0, eta=0.6441))
    assert unsharp == pytest.approx(0.685935654192519, abs=1e-12)
    mix = identity(2) / 2
    assert marginal_probability(mix, UnsharpSetting(n=3, y=2, b=1, eta=0.4)) == pytest.approx(0.5)


def test_marginal_outcomes_sum_to_one():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho)
    for y in range(1, 5):
        p0 = marginal_probability(rho, UnsharpSetting(n=4, y=y, b=0, eta=0.8))
        p1 = marginal_probability(rho, UnsharpSetting(n=4, y=y, b=1, eta=0.8))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)



@pytest.mark.parametrize("entry,value", [((0, 0), np.nan), ((1, 1), np.nan)])
def test_marginal_probability_refuses_a_state_with_a_nan_entry(entry, value):
    rho = build_preparation(3, "010", 0.9)
    rho[entry] = value
    with pytest.raises(ValueError, match="input is not a valid state"):
        marginal_probability(rho, UnsharpSetting(n=3, y=1, b=0, eta=0.6))


@pytest.mark.parametrize("entry,value", [((0, 1), np.inf), ((0, 0), np.inf), ((1, 1), -np.inf)])
def test_marginal_probability_refuses_a_state_with_an_infinite_entry(entry, value):
    rho = build_preparation(3, "010", 0.9)
    rho[entry] = value
    # The product's inf * 0 terms make numpy warn "invalid value", which pytest raises: it reads as a NaN p.
    with pytest.raises(ValueError, match="input is not a valid state"):
        marginal_probability(rho, UnsharpSetting(n=3, y=1, b=0, eta=0.6))


def _wrapper_form_marginal(state, setting):
    # marginal_probability as it read before the method form, for the bit-identity test below
    p = float(np.real(np.trace(np.asarray(state, dtype=complex) @ povm_element(setting))))
    return min(max(p, 0.0), 1.0)


@pytest.mark.parametrize("n", range(2, 10))
def test_marginal_probability_is_bit_equal_to_the_wrapper_form(n):
    rng = np.random.default_rng(20261019 + n)
    d = 2 ** (n // 2)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mixed = raw @ raw.conj().T
    states = [mixed / np.trace(mixed).real, build_preparation(n, all_bit_strings(n)[-3], 0.77)]
    states.append(evolve_average(states[-1], 0.41, n))
    # Eigenspace states of G_1 at eta = 1: p lands on (or rounds just past) the 0 and 1 clip edges.
    edge = projector(UnsharpSetting(n=n, y=1, b=0, eta=1.0))
    states.append(edge / np.trace(edge).real)
    seen = set()
    for state in states:
        for eta in (1.0, *rng.uniform(0.0, 1.0, size=2).tolist()):
            for y in range(1, n + 1):
                for b in (0, 1):
                    setting = UnsharpSetting(n=n, y=y, b=b, eta=eta)
                    got = marginal_probability(state, setting)
                    assert np.float64(got).tobytes() == np.float64(_wrapper_form_marginal(state, setting)).tobytes()
                    seen.add(got)
    assert {0.0, 1.0} <= seen

def test_quality_factor():
    assert quality_factor(3, 0.0) == 1.0
    assert quality_factor(3, 1.0) == pytest.approx(1.0 / 3.0)
    assert quality_factor(3, 0.6441) == pytest.approx(F_3_06441, abs=1e-15)
    with pytest.raises(ValueError):
        quality_factor(3, 1.2)


def test_noncontextual_bound():
    assert noncontextual_bound(3) == pytest.approx(2.0 / 3.0)
    assert noncontextual_bound(2) == pytest.approx(0.75)


def test_visibility_chain_experimental_values():
    plan = visibility_chain(3, 1.0, [0.6441, 0.7637, 1.0])
    np.testing.assert_allclose(plan.visibilities, [1.0, 0.843294198934258, 0.6440357573846263], atol=1e-12)
    for predicted in plan.witnesses:
        assert predicted == pytest.approx(0.6859, abs=5e-5)


def test_visibility_chain_degenerate_cases():
    plan = visibility_chain(4, 0.7, [0.0, 0.0, 0.0])
    assert plan.visibilities == (0.7, 0.7, 0.7)
    assert all(a == pytest.approx(0.5) for a in plan.witnesses)

    plan = visibility_chain(3, 0.5, [1.0])
    assert plan.witnesses[0] == pytest.approx(0.6443375672974064, abs=1e-12)


def test_witness_trivial_tables():
    ones = MarginalTable(n=2, win=np.ones((4, 2)))
    assert witness(ones) == 1.0
    half = MarginalTable(n=3, win=np.full((8, 3), 0.5))
    assert witness(half) == 0.5


def test_marginal_table_validation():
    with pytest.raises(ValueError):
        MarginalTable(n=2, win=np.ones((4, 3)))
    with pytest.raises(ValueError):
        MarginalTable(n=2, win=np.full((4, 2), np.nan))
    with pytest.raises(ValueError):
        MarginalTable(n=2, win=np.full((4, 2), 1.7))


def test_run_sequence_reproduces_experimental_chain():
    tables = run_sequence(3, 1.0, [0.6441, 0.7637, 1.0])
    values = [witness(t) for t in tables]
    for value in values:
        assert value == pytest.approx(0.6859, abs=5e-5)


def test_run_sequence_second_observer_after_sharp():
    tables = run_sequence(2, 1.0, [1.0, 1.0])
    assert witness(tables[1]) == pytest.approx(0.6767766952966369, abs=1e-9)


def test_run_sequence_refuses_sizes_above_budget(monkeypatch):
    # n = 12 would simulate 2^12 states of 256 MiB in total; the guard fires before anything is built
    def unexpected(n):
        raise AssertionError("build_observables ran for an oversized chain")

    monkeypatch.setattr(sequence, "build_observables", unexpected)
    monkeypatch.setattr(ensembles, "build_observables", unexpected)
    for n in (MAX_DENSE_N + 1, 30, np.int64(64), 10**400):
        with pytest.raises(ValueError, match="MAX_DENSE_N=11.*visibility_chain"):
            run_sequence(n, 1.0, [0.5])


def test_dense_constructors_refuse_n_above_max_dense_n(monkeypatch):
    assert build_observables(MAX_DENSE_N).shape == (MAX_DENSE_N, 32, 32)

    def unexpected(n):
        raise AssertionError(f"the observable family was built for n={n}")

    # build_observables checks n before the family is built, and every dense constructor goes through it
    monkeypatch.setattr(operators, "_observable_family", unexpected)
    calls = [
        lambda: build_observables(MAX_DENSE_N + 1),
        lambda: build_preparation(40, "0" * 40, 0.5),
        lambda: build_ensemble(40, 0.5),
        lambda: kraus_operator(UnsharpSetting(n=40, y=1, b=0, eta=0.5)),
        lambda: povm_element(UnsharpSetting(n=40, y=1, b=0, eta=0.5)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"n must be in 2\.\.{MAX_DENSE_N}"):
            call()


def test_run_sequence_no_signal_at_zero_visibility():
    tables = run_sequence(3, 0.0, [0.5, 0.9])
    for t in tables:
        np.testing.assert_allclose(t.win, 0.5, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_run_sequence_matches_closed_form(n):
    rng = np.random.default_rng(40 + n)
    q = float(rng.uniform(0.2, 1.0))
    etas = [float(e) for e in rng.uniform(0.0, 1.0, size=3)]
    plan = visibility_chain(n, q, etas)
    tables = run_sequence(n, q, etas)
    for table, predicted in zip(tables, plan.witnesses):
        assert witness(table) == pytest.approx(predicted, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lemma_states_along_chain(n):
    # channel output must stay in the span {rho_x(1), mix} with the predicted weight
    rng = np.random.default_rng(60 + n)
    dim = build_observables(n).shape[-1]
    mix = identity(dim) / dim
    q = float(rng.uniform(0.1, 1.0))
    etas = [float(e) for e in rng.uniform(0.0, 1.0, size=n)]
    plan = visibility_chain(n, q, etas)
    for x in all_bit_strings(n):
        pure = build_preparation(n, x, 1.0)
        state = build_preparation(n, x, q)
        for k, eta in enumerate(etas):
            expected = plan.visibilities[k] * pure + (1 - plan.visibilities[k]) * mix
            np.testing.assert_allclose(state, expected, atol=1e-9)
            state = evolve_average(state, eta, n)


def test_evolved_ensemble_keeps_operational_equivalence():
    from seqcontext.ensembles import check_operational_equivalence

    evolved = [evolve_average(rho, 0.6441, 3) for rho in build_ensemble(3, 0.9)]
    report = check_operational_equivalence(evolved)
    assert report.passed


def test_csv_round_trip(tmp_path):
    table = run_sequence(3, 1.0, [0.6441])[0]
    path = tmp_path / "table.csv"
    write_marginal_csv(table, path)
    loaded = read_marginal_csv(path)
    np.testing.assert_allclose(loaded.win, table.win, atol=0)
    assert loaded.sigma is None


def test_csv_round_trip_with_sigma(tmp_path):
    win = np.full((4, 2), 0.25)
    sigma = np.full((4, 2), 0.01)
    table = MarginalTable(n=2, win=win, sigma=sigma)
    path = tmp_path / "sig.csv"
    write_marginal_csv(table, path)
    loaded = read_marginal_csv(path)
    np.testing.assert_allclose(loaded.sigma, sigma, atol=0)


def test_csv_rejects_incomplete(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x,y,p_win\n00,1,0.5\n00,2,0.5\n01,1,0.5\n")
    with pytest.raises(ValueError, match="incomplete"):
        read_marginal_csv(path)


def test_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    rows = [f"{x},{y},0.5" for x in ("00", "01", "10", "11") for y in (1, 2)]
    # a later duplicate, and a nan entry before its 0.5, which must not read as a cell not yet written
    for table in (rows + ["00,1,0.4"], ["00,1,nan"] + rows):
        path.write_text("\n".join(["x,y,p_win", *table]) + "\n")
        with pytest.raises(ValueError, match="duplicate entry for x=00, y=1"):
            read_marginal_csv(path)


def test_closed_form_witness_consistency():
    assert closed_form_witness(3, 1.0, 1.0) == pytest.approx(MAX_WITNESS_3)
    assert closed_form_witness(3, 0.0, 1.0) == 0.5


def _reference_sequence(n, q, etas):
    # No instrument cache: every entry from a fresh POVM element, every step an
    # explicit Kraus sum, each observer's table over all states in turn.
    states = build_ensemble(n, q)
    wins = []
    for k, eta in enumerate(etas):
        win = np.empty((2**n, n))
        for ix, x in enumerate(all_bit_strings(n)):
            for y in range(1, n + 1):
                element = povm_element(UnsharpSetting(n=n, y=y, b=int(x[y - 1]), eta=eta))
                win[ix, y - 1] = min(max(float(np.real(np.trace(states[ix] @ element))), 0.0), 1.0)
        wins.append(win)
        if k + 1 < len(etas):
            evolved = []
            for state in states:
                out = np.zeros_like(state)
                for y in range(1, n + 1):
                    for b in (0, 1):
                        kraus = kraus_operator(UnsharpSetting(n=n, y=y, b=b, eta=eta))
                        out += kraus @ state @ kraus.conj().T
                evolved.append(out / n)
            states = evolved
    return wins


@pytest.mark.parametrize("n", [3, 4, 5])
def test_run_sequence_is_bit_identical_to_fresh_instruments(n):
    # Ten etas, no two adjacent equal: the chain runs one observer at a time, so each builds its instrument once.
    etas = [0.3, 0.45, 0.6, 0.72, 0.81, 0.9, 0.55, 0.66, 0.38, 0.3]
    for _ in range(2):
        sequence._instrument.cache_clear()
        tables = run_sequence(n, 0.93, etas)
        assert sequence._instrument.cache_info().misses == len(etas)
        for table, win in zip(tables, _reference_sequence(n, 0.93, etas), strict=True):
            assert np.array_equal(table.win, win)


def test_cached_instruments_keep_the_input_checks():
    rho = build_preparation(3, "010", 0.9)
    marginal_probability(rho, UnsharpSetting(n=3, y=1, b=0, eta=0.5))
    with pytest.raises(ValueError):
        marginal_probability(rho, UnsharpSetting(n=3.0, y=1, b=0, eta=0.5))
    evolve_average(rho, 0.5, 3)
    with pytest.raises(ValueError):
        evolve_average(rho, 1.5, 3)
    with pytest.raises(ValueError):
        evolve_average(rho, 1.5, 3)
    # The (n, eta) cache, warm for (3, 0.5): a bad n or eta raises on every call.
    sequence._instrument(3, 0.5)
    for n, eta in [(3.0, 0.5), (3, 1.5), (3, 1.5), (3, -0.1), (1, 0.5)]:
        with pytest.raises(ValueError):
            sequence._instrument(n, eta)


def test_evolving_and_measuring_share_one_instrument_build():
    rho = build_preparation(3, "010", 0.9)
    sequence._instrument.cache_clear()
    evolve_average(rho, 0.37, 3)
    marginal_probability(rho, UnsharpSetting(n=3, y=1, b=0, eta=0.37))
    assert sequence._instrument.cache_info().misses == 1


def test_returned_instrument_matrices_are_callers_own():
    rho = build_preparation(4, "0110", 0.8)
    setting = UnsharpSetting(n=4, y=2, b=1, eta=0.7)
    p = marginal_probability(rho, setting)
    evolved = evolve_average(rho, 0.7, 4)
    povm_element(setting)[:] = 0.0
    for y in range(1, 5):
        for b in (0, 1):
            kraus_operator(UnsharpSetting(n=4, y=y, b=b, eta=0.7))[:] = 0.0
    assert marginal_probability(rho, setting) == p
    assert np.array_equal(evolve_average(rho, 0.7, 4), evolved)


def test_cached_instrument_matrices_are_read_only():
    kraus, povm = sequence._instrument(3, 0.5)
    assert kraus.shape == (6, 2, 2) and all(len(row) == 2 for row in povm) and len(povm) == 3
    assert not any(matrix.flags.writeable for matrix in (kraus, kraus.base, *kraus))
    elements = sum(povm, ())
    assert not any(element.flags.writeable for element in elements)
    # every POVM element is a view of one broadcast stack, and that is read-only too
    stacks = {id(element.base): element.base for element in elements}.values()
    assert [stack.shape for stack in stacks] == [(3, 2, 2, 2)]
    assert not any(stack.flags.writeable for stack in stacks)


@pytest.mark.parametrize("n", range(2, 12))
def test_instrument_stacks_are_bit_equal_to_the_public_constructors(n):
    etas = [0.0, 0.5, 1.0, *np.random.default_rng(20261018 + n).uniform(0.0, 1.0, size=5).tolist()]
    for eta in etas:
        kraus, povm = sequence._instrument(n, eta)
        assert kraus.shape == (2 * n, 2 ** (n // 2), 2 ** (n // 2))
        for y in range(1, n + 1):
            for b in (0, 1):
                setting = UnsharpSetting(n=n, y=y, b=b, eta=eta)
                k = kraus[2 * (y - 1) + b]
                assert k.tobytes() == kraus_operator(setting).tobytes()
                # evolve_average uses K itself as the right factor K^dagger
                assert np.array_equal(k, k.conj().T)
                assert povm[y - 1][b].tobytes() == povm_element(setting).tobytes()


def test_marginal_table_rejects_non_finite_or_negative_sigma():
    win = np.full((4, 2), 0.5)
    for bad in (np.nan, np.inf, -np.inf, -5.0, -1e-300):
        sigma = np.full((4, 2), 0.01)
        sigma[2, 1] = bad
        with pytest.raises(ValueError, match="sigma"):
            MarginalTable(n=2, win=win, sigma=sigma)
    for good in (0.0, -0.0, 0.0002, 1e300):
        assert MarginalTable(n=2, win=win, sigma=np.full((4, 2), good)).sigma[0, 0] == good
