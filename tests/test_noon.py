import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonforge import (
    NotUnitaryError,
    QuantumState,
    ShapeError,
    SpecError,
    ZeroProbabilityError,
    TransitionTable,
    enumerate_basis,
    evolution_operator,
    evolve_state,
    extract_noon,
    noon_report,
    post_select,
    state_from_spec,
    sweep_inputs,
    unitarize,
)
from noonforge import noon
from noonforge.noon import noon_components

from oracles import (apply_phase_shifts, fidelity_against, fourier_hadamard_unitary,
                     haar_unitary, ideal_noon_state)

RNG_SEED = 77


@pytest.fixture(scope="module")
def pair_table(operator_ii):
    _, state = state_from_spec("0,0,1,1")
    return evolve_state(operator_ii, state)


# --- post_select --------------------------------------------------------------

def test_full_basis_selection_keeps_everything(pair_table):
    state, probability = post_select(pair_table, pair_table.basis.states)
    assert probability == pytest.approx(1.0, abs=1e-9)
    expected = pair_table.canonical()
    assert np.allclose(state.amplitudes, expected.amplitudes, atol=1e-12)


def test_same_side_pair_selection(pair_table):
    state, probability = post_select(pair_table, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert probability == pytest.approx(0.47, abs=0.03)
    assert abs(state.amplitude((1, 1, 0, 0))) == pytest.approx(0.686, abs=0.02)
    assert abs(state.amplitude((0, 0, 1, 1))) == pytest.approx(0.728, abs=0.02)
    assert state.is_normalized()


def test_kept_plus_discarded_is_unity(pair_table):
    kept = [(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 0)]
    discarded = [occ for occ in pair_table.basis.states if occ not in kept]
    _, p_kept = post_select(pair_table, kept)
    _, p_rest = post_select(pair_table, discarded)
    assert p_kept + p_rest == pytest.approx(1.0, abs=1e-9)


def test_zero_probability_selection_raises():
    _, state = state_from_spec("1,1")
    table = evolve_state(np.eye(2), state)
    with pytest.raises(ZeroProbabilityError):
        post_select(table, [(2, 0)])


def test_selection_validation(pair_table):
    with pytest.raises(SpecError):
        post_select(pair_table, [])
    with pytest.raises(SpecError):
        post_select(pair_table, [(3, 0, 0, 0)])


@pytest.mark.parametrize("bad", [None, 5, (1.0, 1, 0, 0), (True, 1, 0, 0), (1, 1, 0, -0.0)],
                         ids=["None", "int", "float", "bool", "negative-zero"])
def test_kept_states_follow_the_occupation_rule(pair_table, bad):
    for kept in [(0, 0, 1, 1), bad], [bad]:
        with pytest.raises(ShapeError, match="kept occupations must be"):
            post_select(pair_table, kept)


@pytest.mark.parametrize("kept", [None, 5], ids=["None", "int"])
def test_the_kept_list_is_a_sequence(pair_table, kept):
    match = f"kept states must be a sequence of occupations, got {kept}"
    with pytest.raises(ShapeError, match=match):
        post_select(pair_table, kept)


def test_a_kept_iterator_is_read_once(pair_table):
    kept = [(1, 1, 0, 0), (0, 0, 1, 1)]
    state, probability = post_select(pair_table, iter(kept))
    expected, expected_probability = post_select(pair_table, kept)
    assert probability == expected_probability
    assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()


def test_post_selection_of_an_evolved_state_names_what_it_refuses(operator_ii):
    state = state_from_spec("0,0,1,1")[1]
    with pytest.raises(SpecError, match="post-selection must keep at least one state"):
        post_select(evolve_state(operator_ii, state), [])
    with pytest.raises(SpecError, match=r"selected state \(3, 0, 0, 0\) is not in the"):
        post_select(evolve_state(operator_ii, state), [(3, 0, 0, 0)])
    with pytest.raises(ZeroProbabilityError, match="post-selection kept zero probability"):
        post_select(evolve_state(np.eye(4), state), [(2, 0, 0, 0), (0, 2, 0, 0)])
    with pytest.raises(NotUnitaryError):
        post_select(evolve_state(2 * np.eye(4), state), [(1, 1, 0, 0)])


# --- extract_noon ---------------------------------------------------------------

def test_hom_gives_perfect_two_mode_noon(symmetric_splitter):
    _, state = state_from_spec("1,1")
    report = extract_noon(evolve_state(symmetric_splitter, state))
    assert report.success_probability == pytest.approx(1.0, abs=1e-12)
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)


def test_no_bunched_weight_raises():
    _, state = state_from_spec("1,1,0,0")
    table = evolve_state(np.eye(4), state)
    with pytest.raises(ZeroProbabilityError):
        extract_noon(table)


def test_two_photon_report(pair_table):
    report = extract_noon(pair_table)
    assert 0.45 <= report.success_probability <= 0.50
    assert report.fidelity >= 0.998
    assert sum(m * m for m in report.normalized_amplitudes) == pytest.approx(1.0, abs=1e-9)


def test_report_invariants(pair_table):
    report = extract_noon(pair_table)
    raw = np.array(report.raw_amplitudes)
    assert report.success_probability == pytest.approx(float(np.sum(np.abs(raw) ** 2)))
    assert report.fidelity == pytest.approx(
        float(np.sum(np.abs(raw))) ** 2 / (4 * report.success_probability))
    for c, theta in zip(raw, report.optimal_phases_deg):
        assert theta == pytest.approx(-np.angle(c, deg=True) / 2)


def test_negligible_bunched_components_get_phase_zero():
    # F (H + H) sends 2,1,0,1 to 0,0,4,0 with an amplitude of 3e-33, rounding
    # noise, and to 0,4,0,0 and 0,0,0,4 with real negative amplitudes
    report = noon_report(fourier_hadamard_unitary(), state_from_spec("2,1,0,1")[1])
    assert [abs(c) <= 1e-12 for c in report.raw_amplitudes] == [True, False, True, False]
    assert report.optimal_phases_deg == (0.0, -45.0, 0.0, -45.0)


@pytest.mark.parametrize("name", ["splitter_i", "splitter_ii"])
def test_noon_report_equals_extract_noon(name, request):
    u = evolution_operator(unitarize(request.getfixturevalue(name)))
    states = [QuantumState.from_occupations(basis, occ)
              for basis in (enumerate_basis(4, n) for n in range(1, 5))
              for occ in basis.states]
    states.append(state_from_spec(
        "0.6*|2,1,0,0> + 0.8@135*|0,1,1,1> + 0.5@-60*|1,0,1,1>")[1])
    for state in states:
        assert noon_report(u, state) == extract_noon(evolve_state(u, state))


def test_noon_report_checks_like_evolve_state(operator_ii):
    with pytest.raises(ShapeError):
        noon_report(operator_ii, state_from_spec("1,1,1")[1])
    with pytest.raises(ShapeError):
        noon_report(operator_ii, state_from_spec("0,0,0,0")[1])
    with pytest.raises(ZeroProbabilityError):
        noon_report(np.eye(4), state_from_spec("1,1,0,0")[1])


def test_optimal_phases_align_to_ideal_target(pair_table):
    report = extract_noon(pair_table)
    bunched, _ = post_select(pair_table, noon_components(pair_table.basis))
    shifted = apply_phase_shifts(bunched, report.optimal_phases_deg)
    target = ideal_noon_state(4, 2)
    assert fidelity_against(shifted, target) == pytest.approx(report.fidelity, abs=1e-9)


def test_phase_shift_keeps_table_input(pair_table):
    shifted = apply_phase_shifts(pair_table, [10.0, 20.0, 30.0, 40.0])
    assert isinstance(shifted, TransitionTable)
    assert shifted.input is pair_table.input
    assert shifted.basis == pair_table.basis


def test_extraction_invariant_under_phase_shifts(pair_table):
    rng = np.random.default_rng(RNG_SEED)
    base = extract_noon(pair_table)
    for _ in range(5):
        shifted_table = apply_phase_shifts(pair_table, rng.uniform(-180, 180, size=4))
        report = extract_noon(shifted_table)
        assert report.success_probability == pytest.approx(
            base.success_probability, abs=1e-12)
        assert report.fidelity == pytest.approx(base.fidelity, abs=1e-12)
        assert report.normalized_amplitudes == pytest.approx(
            base.normalized_amplitudes, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(mags=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
       degs=st.lists(st.floats(-180, 180), min_size=4, max_size=4))
def test_fidelity_is_one_iff_magnitudes_equal(mags, degs):
    basis = enumerate_basis(4, 2)
    amps = np.zeros(len(basis), dtype=complex)
    for j, (m, d) in enumerate(zip(mags, degs)):
        occ = [0] * 4
        occ[j] = 2
        amps[basis.index_of(tuple(occ))] = m * np.exp(1j * np.deg2rad(d))
    state = QuantumState(basis, amps).normalized()
    table = evolve_state(np.eye(4), state)
    report = extract_noon(table)
    spread = max(np.abs(amps[amps != 0])) - min(np.abs(amps[amps != 0]))
    if spread <= 1e-12:
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)
    if report.fidelity >= 1.0 - 1e-12:
        assert spread <= 1e-5


# --- fidelity_against -----------------------------------------------------------

def test_fidelity_with_itself(pair_table):
    assert fidelity_against(pair_table, pair_table) == pytest.approx(1.0)


def test_fidelity_orthogonal_states():
    basis = enumerate_basis(4, 2)
    a = QuantumState.from_occupations(basis, (2, 0, 0, 0))
    b = QuantumState.from_occupations(basis, (0, 2, 0, 0))
    assert fidelity_against(a, b) == 0.0


def test_fidelity_basis_mismatch():
    a = QuantumState.from_occupations(enumerate_basis(4, 2), (2, 0, 0, 0))
    b = QuantumState.from_occupations(enumerate_basis(4, 3), (3, 0, 0, 0))
    with pytest.raises(ShapeError):
        fidelity_against(a, b)


def test_quoted_two_photon_fidelity_closed_form():
    # overlap of the quoted bunched magnitudes with the flat target
    mags = np.array([0.339, 0.333, 0.342, 0.350])
    expected = float(np.sum(mags)) ** 2 / (4 * float(np.sum(mags ** 2)))
    basis = enumerate_basis(4, 2)
    amps = np.zeros(len(basis), dtype=complex)
    for j, m in enumerate(mags):
        occ = [0] * 4
        occ[j] = 2
        amps[basis.index_of(tuple(occ))] = m
    aligned = QuantumState(basis, amps).normalized()
    assert fidelity_against(aligned, ideal_noon_state(4, 2)) == pytest.approx(
        expected, abs=1e-12)
    assert expected == pytest.approx(0.999, abs=0.001)


# --- sweep ----------------------------------------------------------------------

def test_sweep_ranks_spread_first(operator_ii):
    rows = sweep_inputs(operator_ii, 4)
    assert rows[0][0] == (1, 1, 1, 1)
    by_input = {occ: r.success_probability for occ, r in rows}
    assert by_input[(1, 1, 1, 1)] > by_input[(4, 0, 0, 0)]


def test_sweep_matches_extract_noon(operator_ii):
    rows = dict(sweep_inputs(operator_ii, 3))
    basis = enumerate_basis(4, 3)
    for occ in [(0, 1, 1, 1), (3, 0, 0, 0), (1, 1, 1, 0)]:
        table = evolve_state(operator_ii, QuantumState.from_occupations(basis, occ))
        direct = extract_noon(table)
        assert rows[occ].success_probability == pytest.approx(
            direct.success_probability, abs=1e-12)
        assert rows[occ].fidelity == pytest.approx(direct.fidelity, abs=1e-12)


def _sweep_cases():
    splitters = [(name, n) for name in ("splitter_i", "splitter_ii") for n in range(1, 7)]
    return splitters + [("haar5", 3)] + [("identity", n) for n in range(1, 5)]


@pytest.mark.parametrize("name,photons", _sweep_cases())
def test_sweep_reports_equal_noon_report(name, photons, request):
    if name == "haar5":
        u = haar_unitary(5, np.random.default_rng(RNG_SEED))
    elif name == "identity":
        u = np.eye(4)
    else:
        u = evolution_operator(unitarize(request.getfixturevalue(name)))
    modes = u.shape[0]
    basis = enumerate_basis(modes, photons)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sweep_inputs(u, photons)
        assert sorted(occ for occ, _ in rows) == sorted(basis.states)
        for occ, report in rows:
            state = QuantumState.from_occupations(basis, occ)
            if report.success_probability == 0.0:
                # no bunched weight: the placeholder, where a single report refuses
                assert report == noon.NoonReport(photons, modes, (0j,) * modes, 0.0,
                                                 (0.0,) * modes, (0.0,) * modes, 0.0)
                with pytest.raises(ZeroProbabilityError):
                    noon_report(u, state)
            else:
                assert report == noon_report(u, state)
    if name == "identity":
        assert sum(r.success_probability == 0.0 for _, r in rows) == len(rows) - modes


def test_single_photon_sweep_is_trivial(operator_ii):
    rows = sweep_inputs(operator_ii, 1)
    assert len(rows) == 4
    for _, report in rows:
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)


def test_identity_sweep_concentrated_inputs():
    rows = dict(sweep_inputs(np.eye(4), 3))
    concentrated = rows[(3, 0, 0, 0)]
    assert concentrated.success_probability == pytest.approx(1.0)
    assert concentrated.fidelity == pytest.approx(0.25)
    # inputs with no bunched weight rank last with the zero placeholder
    assert rows[(1, 1, 1, 0)].success_probability == 0.0
    assert rows[(1, 1, 1, 0)].fidelity == 0.0


def test_sweep_tie_break_is_lexicographic():
    rows = sweep_inputs(np.eye(4), 2)
    top = [occ for occ, r in rows if r.success_probability > 0.5]
    assert top == sorted(top)


def test_sweep_ties_ignore_rounding_noise(monkeypatch, splitter_i):
    # Splitter I is symmetric, so many inputs tie exactly in success
    # probability; perturbing every bunched amplitude that is scored in its
    # last bits must not reorder them, and tied inputs come in ascending order.
    u = evolution_operator(unitarize(splitter_i))
    expected = {n: sweep_inputs(u, n) for n in range(1, 7)}
    for rows in expected.values():
        for (occ_a, a), (occ_b, b) in zip(rows, rows[1:]):
            if a.success_probability - b.success_probability <= 1e-12:
                assert occ_a < occ_b
    score = noon._score

    def perturbed(raw, photons):
        k = np.arange(1, raw.size + 1).reshape(raw.shape)
        return score(raw * (1 + k * 1e-15), photons)

    monkeypatch.setattr(noon, "_score", perturbed)
    for n, rows in expected.items():
        assert [occ for occ, _ in sweep_inputs(u, n)] == [occ for occ, _ in rows]


def test_sweep_validates_inputs(operator_ii):
    with pytest.raises(ShapeError):
        sweep_inputs(operator_ii, 0)
    with pytest.raises(NotUnitaryError):
        sweep_inputs(2 * np.eye(4), 2)


def test_sweep_refuses_non_integer_photon_counts(monkeypatch, operator_ii):
    expected = sweep_inputs(operator_ii, 3)
    assert sweep_inputs(operator_ii, np.int64(3)) == expected

    def no_basis(*args):
        raise AssertionError("a basis was built for a refused photon count")

    monkeypatch.setattr(noon, "enumerate_basis", no_basis)
    for count in (True, 2.5, "4"):
        with pytest.raises(ShapeError, match=f"got {count!r}"):
            sweep_inputs(operator_ii, count)


def test_sweep_success_probabilities_are_probabilities():
    rng = np.random.default_rng(RNG_SEED)
    u = haar_unitary(4, rng)
    for _, report in sweep_inputs(u, 3):
        assert 0.0 <= report.success_probability <= 1.0 + 1e-12
