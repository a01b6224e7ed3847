import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonforge import (CapacityError, InputError, QuantumState, ShapeError, SpecError,
                       enumerate_basis)
from noonforge import fock, serialize
from noonforge.fock import (FockBasis, amplitude_rows, parse_spec, state_from_spec,
                           state_to_spec)

from oracles import brute_force_occupations, photon_placements


def test_vacuum_basis():
    basis = enumerate_basis(4, 0)
    assert basis.states == ((0, 0, 0, 0),)


@pytest.mark.parametrize("modes,photons,size", [(4, 2, 10), (4, 4, 35), (2, 2, 3)])
def test_known_sizes(modes, photons, size):
    assert len(enumerate_basis(modes, photons)) == size


def test_sizes_match_binomial_and_brute_force():
    # exhaustive over the working range
    for modes in range(1, 7):
        for photons in range(0, 9):
            basis = enumerate_basis(modes, photons)
            expected = math.comb(photons + modes - 1, modes - 1)
            assert len(basis) == expected
            assert set(basis.states) == brute_force_occupations(modes, photons)


def test_ordering_is_lexicographically_descending():
    basis = enumerate_basis(4, 2)
    assert basis.states[0] == (2, 0, 0, 0)
    assert basis.states[-1] == (0, 0, 0, 2)
    assert list(basis.states) == sorted(basis.states, reverse=True)


@settings(max_examples=40, deadline=None)
@given(modes=st.integers(1, 6), photons=st.integers(0, 8))
def test_index_roundtrip(modes, photons):
    basis = enumerate_basis(modes, photons)
    for i, state in enumerate(basis.states):
        assert basis.index_of(state) == i


@pytest.mark.parametrize("modes,photons", itertools.product(range(1, 7), range(9)))
def test_states_are_every_occupation_in_descending_order(modes, photons):
    basis = enumerate_basis(modes, photons)
    assert basis.states == tuple(sorted(brute_force_occupations(modes, photons), reverse=True))


@pytest.mark.parametrize("modes,photons", [(41, 2), (64, 1), (2, 300)])
def test_wide_and_deep_bases_in_descending_order(modes, photons):
    basis = enumerate_basis(modes, photons)
    assert basis.states == tuple(sorted(photon_placements(modes, photons), reverse=True))
    assert [basis.index_of(s) for s in basis.states] == list(range(len(basis)))


@pytest.mark.parametrize("modes,photons", [
    (1, 0), (1, 3), (2, 0), (3, 0), (4, 1), (4, 4), (3, 7), (6, 3), (41, 2), (2, 300)])
def test_raise_table_positions_t_plus_e_j(modes, photons):
    basis = FockBasis(modes, photons)
    index = {state: i for i, state in enumerate(basis.states)}
    lower = FockBasis(modes, photons - 1).states if photons else ()
    expected = [[index[t[:j] + (t[j] + 1,) + t[j + 1:]] for j in range(modes)] for t in lower]
    raised = basis.ladder[0]
    assert raised.shape == (modes, len(lower))
    assert raised.T.tolist() == expected


def test_occupations_and_raise_table_are_read_only():
    basis = enumerate_basis(4, 3)
    assert basis.occupations.tolist() == [list(s) for s in basis.states]
    with pytest.raises(ValueError):
        basis.occupations[0, 0] = 1
    for table in basis.ladder:
        with pytest.raises(ValueError):
            table[0, 0] = 1


@pytest.mark.parametrize("modes,photons", [(1, 0), (1, 3), (2, 0), (4, 0), (4, 3), (2, 300)])
def test_found_states_in_every_integer_form(modes, photons):
    basis = enumerate_basis(modes, photons)
    for i, state in enumerate(basis.states):
        for form in (state, list(state), basis.occupations[i],
                     np.array(state, dtype=np.int64), [float(n) for n in state],
                     tuple(np.int64(n) for n in state)):
            assert form in basis
            assert basis.index_of(form) == i
            assert type(basis.index_of(form)) is int


@pytest.mark.parametrize("modes,photons", [(1, 0), (1, 3), (2, 0), (4, 0), (4, 3), (2, 300)])
def test_states_outside_the_basis_are_refused_with_key_error(modes, photons):
    basis = enumerate_basis(modes, photons)
    first = basis.states[0]
    bad = [(), first[:-1], first + (0,), (photons + 1,) + first[1:], (-1,) + first[1:],
           (photons + 1,) + (0,) * (modes - 2) + (-1,), (photons - 0.5,) + first[1:],
           (1.5,) * modes, (math.nan,) * modes, (math.inf,) * modes, ("1",) * modes,
           (None,) * modes, ([1],) * modes]
    for state in bad:
        assert state not in basis, state
        with pytest.raises(KeyError):
            basis.index_of(state)


_ENTRIES = st.one_of(st.integers(-3, 6), st.integers(-3, 6).map(float),
                     st.floats(-3, 6, allow_nan=False), st.integers(250, 302))


@settings(max_examples=300, deadline=None)
@given(modes=st.integers(1, 4), photons=st.integers(0, 5),
       state=st.lists(_ENTRIES, min_size=0, max_size=5))
def test_membership_decided_as_a_dict_over_the_states(modes, photons, state):
    basis = enumerate_basis(modes, photons)
    index = {s: i for i, s in enumerate(basis.states)}
    assert (state in basis) == (tuple(state) in index)
    if tuple(state) in index:
        assert basis.index_of(state) == index[tuple(state)]
    else:
        with pytest.raises(KeyError):
            basis.index_of(state)


def test_basis_memory_stays_near_its_occupation_matrix():
    # 352,716 states of 12 bytes each; a tuple-and-dict basis peaked at 87.8 MiB.
    tracemalloc.start()
    try:
        basis = enumerate_basis(12, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 352_716
    assert peak <= 32 * 2 ** 20


def test_capacity_cap():
    with pytest.raises(CapacityError):
        enumerate_basis(20, 30)


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("NOONFORGE_CAP", "5")
    with pytest.raises(CapacityError):
        enumerate_basis(4, 2)
    monkeypatch.setenv("NOONFORGE_CAP", "10")
    assert len(enumerate_basis(4, 2)) == 10
    monkeypatch.setenv("NOONFORGE_CAP", "banana")
    with pytest.raises(InputError):
        enumerate_basis(4, 2)
    for cap in ("0", "-3"):
        monkeypatch.setenv("NOONFORGE_CAP", cap)
        with pytest.raises(InputError, match="must be positive"):
            enumerate_basis(4, 2)


# --- shared bases --------------------------------------------------------------

def test_enumerate_basis_returns_one_shared_basis():
    basis = enumerate_basis(4, 2)
    assert enumerate_basis(4, 2) is basis
    assert enumerate_basis(np.int64(4), np.int64(2)) is basis
    assert type(basis.modes) is int and type(basis.photons) is int
    assert state_from_spec("0,0,1,1")[0] is basis
    assert enumerate_basis(4, 2).ladder is basis.ladder
    assert enumerate_basis(4, 2).labels is basis.labels


def test_shared_basis_is_read_only():
    basis = enumerate_basis(4, 2)
    with pytest.raises(AttributeError, match="read-only"):
        basis.modes = 5
    with pytest.raises(AttributeError, match="read-only"):
        basis.states = ()
    assert basis.modes == 4 and len(basis.states) == 10


def test_float_counts_are_refused_after_a_hit():
    enumerate_basis(4, 2)
    with pytest.raises(ShapeError):
        enumerate_basis(4, 2.0)
    with pytest.raises(ShapeError):
        enumerate_basis(4.0, 2)


def test_cap_is_checked_on_a_hit(monkeypatch):
    enumerate_basis(4, 2)
    monkeypatch.setenv("NOONFORGE_CAP", "5")
    with pytest.raises(CapacityError,
                       match="basis of 10 states for 2 photons over 4 modes exceeds the cap of 5"):
        enumerate_basis(4, 2)


def test_basis_cache_admits_from_many_threads(monkeypatch):
    bound = 100_000
    monkeypatch.setattr(fock, "_basis_cache", fock.BoundedCache(bound))
    keys = [(modes, photons) for modes in range(2, 6) for photons in range(7)]
    errors = []

    def admit(offset):
        try:
            for i in range(200):
                modes, photons = keys[(offset + 7 * i) % len(keys)]
                assert enumerate_basis(modes, photons).modes == modes
        except Exception as exc:  # a thread cannot fail the test itself; asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=admit, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    cache = fock._basis_cache
    assert cache.total == sum(fock._footprint(*key, len(b)) for key, b in cache.items()) <= bound


@pytest.mark.parametrize("modes,photons", [(1, 5), (2, 1), (2, 300), (2, 3000), (4, 0),
                                           (4, 8), (4, 14), (8, 5), (12, 5), (41, 2)])
def test_footprint_bounds_every_table_of_a_basis(modes, photons):
    tracemalloc.start()
    try:
        basis = FockBasis(modes, photons)
        basis.states, basis.labels, basis.ladder
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= fock._footprint(modes, photons, len(basis))


@pytest.mark.parametrize("modes,photons", [(1, 0), (2, 3), (4, 4), (3, 300), (12, 2)])
def test_labels_are_the_formatted_states(modes, photons):
    basis = enumerate_basis(modes, photons)
    assert basis.labels == tuple(fock.format_occupations(s) for s in basis.states)


# --- state specs -------------------------------------------------------------

def test_single_ket_spec():
    basis, state = state_from_spec("0,0,1,1")
    assert basis.modes == 4 and basis.photons == 2
    assert state.amplitude((0, 0, 1, 1)) == pytest.approx(1.0)
    assert state.is_normalized()


def test_four_photon_product_spec():
    basis, state = state_from_spec("1,1,1,1")
    assert basis.photons == 4
    assert state.amplitude((1, 1, 1, 1)) == pytest.approx(1.0)


def test_negative_occupation_rejected():
    with pytest.raises(SpecError):
        state_from_spec("0,-1")


def test_superposition_spec():
    _, state = state_from_spec("0.7*|2,0> + 0.7@90*|0,2>")
    assert state.is_normalized()
    assert state.amplitude((2, 0)) == pytest.approx(1 / math.sqrt(2))
    assert state.amplitude((0, 2)) == pytest.approx(1j / math.sqrt(2))


@pytest.mark.parametrize("signed, plain", [
    ("0.7@+90*|2,0> + 0.7*|0,2>", "0.7@90*|2,0> + 0.7*|0,2>"),
    ("+0.6*|1,1> + 0.8*|2,0>", "0.6*|1,1> + 0.8*|2,0>"),
    ("0.6*|1,1> + +0.8@+45*|2,0>", "0.6*|1,1> + 0.8@45*|2,0>"),
])
def test_explicit_plus_sign(signed, plain):
    assert np.array_equal(state_from_spec(signed)[1].amplitudes,
                          state_from_spec(plain)[1].amplitudes)


def test_bare_ket_term():
    _, state = state_from_spec("|1,0> + |0,1>")
    assert state.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))


def test_mixed_photon_numbers_rejected():
    with pytest.raises(SpecError):
        state_from_spec("|1,0> + |1,1>")


def test_mixed_mode_counts_rejected():
    with pytest.raises(SpecError):
        state_from_spec("|1,0> + |0,1,0>")


@pytest.mark.parametrize("bad", ["", "5", "|>", "1,1,x", "0.5|1,0>", "abc*|1,0>"])
def test_malformed_specs(bad):
    with pytest.raises(SpecError):
        state_from_spec(bad)


def test_cancelling_terms_rejected():
    with pytest.raises(SpecError):
        state_from_spec("1*|1,0> + -1*|1,0>")


def test_parse_spec_sums_repeated_kets_without_building_a_basis(monkeypatch):
    def no_basis(modes, photons):
        raise AssertionError("basis built")
    monkeypatch.setattr(fock, "enumerate_basis", no_basis)
    kets = parse_spec("0.5*|2,0> + |0,2> + 0.25*|2,0>")
    assert kets == {(2, 0): 0.75, (0, 2): 1}
    assert parse_spec("3,0,1") == {(3, 0, 1): 1}
    with pytest.raises(SpecError, match="cancel"):
        parse_spec("1*|1,0> + -1*|1,0>")


def test_spec_roundtrip_single_ket():
    basis, state = state_from_spec("0,2,1,0")
    assert state_to_spec(state) == "0,2,1,0"


@pytest.mark.parametrize("phase, echoed", [
    ("-0.001", ""), ("0.001", ""), ("-0.004999", ""), ("0.0049", ""), ("-0.006", "@-0.01"),
    ("0.006", "@0.01"), ("0", ""), ("180", "@180.00"), ("-179.999", "@180.00")])
def test_a_phase_echoed_as_zero_is_left_out(phase, echoed):
    _, state = state_from_spec(f"1*|1,0,0,0> + 1@{phase}*|0,1,0,0>")
    assert state_to_spec(state) == f"0.707107*|1,0,0,0> + 0.707107{echoed}*|0,1,0,0>"


def test_spec_lists_exactly_the_terms_above_the_negligible_amplitude():
    basis = enumerate_basis(4, 3)
    amps = np.zeros(len(basis), dtype=complex)
    amps[[0, 3, 7, 19]] = [0.6, 2e-12, 1e-12j, 0.8j]  # 1e-12 is negligible, 2e-12 is not
    assert state_to_spec(QuantumState(basis, amps)) == \
        "0.600000*|3,0,0,0> + 0.000000*|2,0,0,1> + 0.800000@90.00*|0,0,0,3>"


# --- QuantumState ------------------------------------------------------------

@pytest.mark.parametrize("bad", ["x", [[1], [1, 2]], [1, {}], [10 ** 400] * 2],
                         ids=["string", "ragged", "dict-entry", "huge-int"])
def test_amplitudes_numpy_cannot_read_are_shape_errors(bad):
    with pytest.raises(ShapeError, match="expected an array of numbers"):
        QuantumState(enumerate_basis(2, 1), bad)


@pytest.mark.parametrize("bad", [(True, 0), (1.0, 0), (np.float64(1), 0), ("1", 0), None, 5],
                         ids=["bool", "float", "float64", "str", "None", "int"])
def test_only_integer_occupations_build_a_state(bad):
    basis = enumerate_basis(2, 1)
    assert (1, 0) in basis or bad is None or bad == 5  # membership stays a dict lookup
    with pytest.raises(ShapeError, match="occupations must be"):
        QuantumState.from_occupations(basis, bad)
    for spelled in [(1, 0), [1, 0], (np.int64(1), np.uint8(0)), np.array([1, 0])]:
        state = QuantumState.from_occupations(basis, spelled)
        assert state.amplitudes.tolist() == [1, 0]


@pytest.mark.parametrize("occ", [(0, 1, 0), (2, 0), (1, -1, 1), ()])
def test_a_state_outside_the_basis_is_a_shape_error(occ):
    with pytest.raises(ShapeError):
        QuantumState.from_occupations(enumerate_basis(2, 1), occ)


@pytest.mark.parametrize("modes, photons", [(True, 2), (2, True), (2.0, 2), (2, 2.0), (2, "2"),
                                            (None, 2), (2, -1), (-1, 2)], ids=repr)
def test_basis_counts_follow_the_occupation_rule(modes, photons):
    with pytest.raises(ShapeError, match="mode and photon counts must be"):
        FockBasis(modes, photons)
    with pytest.raises(ShapeError, match="mode and photon counts must be"):
        enumerate_basis(modes, photons)


def test_basis_needs_a_mode():
    with pytest.raises(InputError, match="mode count must be at least 1"):
        FockBasis(0, 1)
    with pytest.raises(InputError, match="mode count must be at least 1"):
        enumerate_basis(0, 1)


def test_canonical_global_phase():
    basis = enumerate_basis(2, 1)
    state = QuantumState(basis, np.array([1j, 1.0]) / math.sqrt(2))
    canonical = state.canonical()
    assert canonical.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    assert canonical.amplitudes[1] == pytest.approx(-1j / math.sqrt(2))


def test_canonical_of_a_state_with_no_held_amplitude_is_that_state():
    state = QuantumState(enumerate_basis(2, 1), np.array([fock.NEGLIGIBLE_AMPLITUDE, 0j]))
    assert state.canonical() is state


_SPARSE_PART = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, fock.NEGLIGIBLE_AMPLITUDE]),
                        st.floats(1e-13, 1e-11), st.floats(-1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 19), st.builds(complex, _SPARSE_PART, _SPARSE_PART),
                       max_size=6))
def test_terms_are_the_zip_and_filter_of_the_amplitudes(entries):
    """terms(0) keeps each nonzero amplitude and terms(NEGLIGIBLE_AMPLITUDE) each above
    it, in basis order, as the numpy scalars indexing reads, bit for bit. terms reads
    np.abs, which can differ from the scalar abs in the last bit; only a magnitude
    within that bit of the threshold could tell them apart."""
    basis = enumerate_basis(4, 3)
    amps = np.zeros(len(basis), dtype=complex)
    amps[list(entries)] = list(entries.values())
    state = QuantumState(basis, amps)
    pairs = list(zip(basis.states, state.amplitudes))
    low = fock.NEGLIGIBLE_AMPLITUDE
    for held, expected in [(state.terms(), [(s, a) for s, a in pairs if a != 0]),
                           (state.terms(low), [(s, a) for s, a in pairs if abs(a) > low])]:
        assert [s for s, _ in held] == [s for s, _ in expected]
        assert [(type(a), a.tobytes()) for _, a in held] == \
            [(type(a), a.tobytes()) for _, a in expected]


def test_normalized_rejects_zero():
    basis = enumerate_basis(2, 1)
    state = QuantumState(basis, np.zeros(2))
    with pytest.raises(ValueError):
        state.normalized()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.nan)])
def test_normalized_rejects_non_finite_amplitudes(bad):
    state = QuantumState(enumerate_basis(2, 1), np.array([bad, 1.0]))
    with pytest.raises(ValueError):
        state.normalized()


@pytest.mark.parametrize("amps, expected", [
    ([1e308, 1e308j], [1 / math.sqrt(2), 1j / math.sqrt(2)]),
    ([1.5e308 + 1.5e308j, 0.0], [(1 + 1j) / math.sqrt(2), 0.0]),
    ([1e-201, 0.0], [1.0, 0.0]),
    ([5e-324j, 0.0], [1j, 0.0]),
])
def test_normalized_survives_norms_outside_the_float_range(amps, expected):
    with np.errstate(all="raise"):
        state = QuantumState(enumerate_basis(2, 1), np.array(amps)).normalized()
    assert np.allclose(state.amplitudes, expected, rtol=0, atol=1e-15)


_PART = st.one_of(st.just(0.0), st.floats(1e-50, 1e50), st.floats(-1e50, -1e-50))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, _PART, _PART), min_size=1, max_size=8))
def test_normalized_equals_the_plain_quotient_bit_for_bit(values):
    amps = np.array(values, dtype=complex)
    if not amps.any():
        return
    state = QuantumState(enumerate_basis(len(values), 1), amps).normalized()
    plain = amps / np.linalg.norm(amps)
    assert state.amplitudes.view(np.float64).tolist() == plain.view(np.float64).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, _PART, _PART), min_size=1, max_size=8))
def test_norm_equals_the_plain_norm_bit_for_bit(values):
    amps = np.array(values, dtype=complex)
    state = QuantumState(enumerate_basis(len(values), 1), amps)
    assert repr(state.norm()) == repr(float(np.linalg.norm(amps)))


@pytest.mark.parametrize("amps, expected", [
    ([1e200, 0.0], 1e200),
    ([1e308, 1e308j], math.sqrt(2) * 1e308),
    ([3e-200, 4e-200j], 5e-200),
    ([5e-324j, 0.0], 5e-324),
    ([0.0, 0.0], 0.0),
    ([1.7e308, 1.7e308], math.inf),
])
def test_norm_is_scaled_before_it_is_taken(amps, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = QuantumState(enumerate_basis(2, 1), np.array(amps)).norm()
    assert norm == pytest.approx(expected, rel=1e-15)


def test_amplitudes_are_immutable():
    basis, state = state_from_spec("1,0")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


# --- payload rows --------------------------------------------------------------

def test_amplitude_rows_match_one_scalar_call_per_amplitude():
    # Magnitudes and phases on a 6th-decimal rounding boundary, where a last
    # bit of difference between two ways of taking abs or arg flips a token.
    rng = np.random.default_rng(11)
    mags = (rng.integers(1, 10 ** 6, 2000) + 0.5) / 1e6
    degs = (rng.integers(-180 * 10 ** 6, 180 * 10 ** 6, 2000) + 0.5) / 1e6
    amps = np.concatenate([mags * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000)),
                           rng.uniform(0.1, 2, 2000) * np.exp(1j * np.radians(degs)),
                           [0, -0.0, -1e-13j, -1, -0.5 - 1e-17j, -1 - 1e-11j]])
    labels = [f"{i},0" for i in range(len(amps))]
    # 0, -0.0 and -1e-13j are at most NEGLIGIBLE_AMPLITUDE, so their phase prints as
    # 0; -0.5 - 1e-17j is real to within NEGLIGIBLE_AMPLITUDE of its magnitude, so
    # its phase is 180, not -180; -1 - 1e-11j is not, and keeps its phase, which
    # rounds to -180 at 6 decimals and so prints as 180
    assert serialize.fixed(math.degrees(np.angle(-1 - 1e-11j)), 6) == "-180.000000"
    phases = ([math.degrees(np.angle(a)) for a in amps[:-6]]
              + [0.0, 0.0, 0.0, 180.0, 180.0, 180.0])
    expected = [{"state": label,
                 "mag": serialize.fixed(abs(a), 6),
                 "phase_deg": serialize.fixed(phase, 6)}
                for label, a, phase in zip(labels, amps, phases)]
    assert amplitude_rows(labels, amps) == expected
    assert amplitude_rows(labels, list(amps)) == expected


@pytest.mark.parametrize("degrees, printed", [
    (-179.9999996, "180.000000"),  # rounds to -180 at 6 decimals
    (-179.9999994, "-179.999999"),
    (179.9999996, "180.000000"),
])
def test_amplitude_rows_print_a_phase_that_rounds_to_minus_180_as_180(degrees, printed):
    (row,) = amplitude_rows(["1,0"], [np.exp(1j * np.radians(degrees))])
    assert row["phase_deg"] == printed
