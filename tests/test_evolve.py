import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse.linalg import expm_multiply

from noonforge import (
    CapacityError,
    InputError,
    NotHermitianError,
    NotUnitaryError,
    QuantumState,
    ShapeError,
    TransitionTable,
    effective_hamiltonian,
    enumerate_basis,
    evolution_operator,
    evolve_state,
    evolve_state_hamiltonian,
    fock_hamiltonian,
    matrix_exp,
    permanent,
    state_from_spec,
    sweep_inputs,
    transition_amplitude,
    unitarize,
)
from noonforge import evolve, fock
from noonforge.evolve import PERMANENT_CAP
from noonforge.unitary import HERMITIAN_TOL, max_unitarity_defect, require_hermitian

from oracles import (bunched_amplitudes, fourier_unitary, haar_unitary, loop_fock_hamiltonian,
                     naive_permanent, random_fock_input, random_hermitian)

RNG_SEED = 424242


# --- permanent ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 7))
def test_permanent_of_identity(n):
    assert permanent(np.eye(n, dtype=complex)) == pytest.approx(1.0)


def test_permanent_two_by_two():
    a, b, c, d = 1.3 - 0.2j, 0.4 + 1.1j, -0.7 + 0.3j, 2.0 - 1.0j
    assert permanent(np.array([[a, b], [c, d]])) == pytest.approx(a * d + b * c)


def test_permanent_all_ones_is_factorial():
    for n in range(1, PERMANENT_CAP + 1):
        assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n), rel=1e-10)


def test_permanent_matches_naive_oracle_on_seeded_matrices():
    rng = np.random.default_rng(RNG_SEED)
    for n in (2, 3, 4, 5):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ours = permanent(m)
        ref = naive_permanent(m)
        assert abs(ours - ref) <= 1e-10 * max(1.0, abs(ref))


@settings(max_examples=60, deadline=None)
@given(m=arrays(np.complex128, (4, 4),
                elements=st.complex_numbers(max_magnitude=2.0,
                                            allow_nan=False, allow_infinity=False)))
def test_permanent_matches_naive_oracle_hypothesis(m):
    ref = naive_permanent(m)
    assert abs(permanent(m) - ref) <= 1e-10 * max(1.0, abs(ref))


@st.composite
def _repeated_columns(draw, max_photons=8):
    """A composition of n <= max_photons as column counts, and an (n x parts) complex matrix.

    Entry magnitudes stay in [1/4, 2], so the permanent of the magnitudes,
    the scale rounding errors are measured on, is never zero.
    """
    n = draw(st.integers(1, max_photons))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    counts = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
    polar = st.tuples(st.floats(0.25, 2.0), st.floats(-math.pi, math.pi))
    entries = draw(st.lists(polar, min_size=n * len(counts), max_size=n * len(counts)))
    b = np.array([r * np.exp(1j * phi) for r, phi in entries]).reshape(n, len(counts))
    return b, counts


@settings(max_examples=40, deadline=None)
@given(case=_repeated_columns())
def test_permanent_of_repeated_columns_matches_naive_oracle(case):
    b, counts = case
    expanded = np.repeat(b, counts, axis=1)
    scale = naive_permanent(np.abs(expanded)).real
    assert abs(permanent(b, counts) - naive_permanent(expanded)) <= 1e-12 * scale


def test_permanent_with_unit_counts_equals_plain_permanent_bit_for_bit():
    m = np.random.default_rng(RNG_SEED).standard_normal((7, 7)) * (1 + 1j)
    assert repr(permanent(m.T.copy(), [1] * 7)) == repr(permanent(m))


def test_permanent_counts_are_checked():
    with pytest.raises(ShapeError, match="column counts must be integers"):
        permanent(np.ones((2, 1)), (2.0,))
    with pytest.raises(ShapeError, match="column counts must be non-negative"):
        permanent(np.ones((2, 3)), (3, 0, -1))
    with pytest.raises(ShapeError, match=r"expected a \(3, 2\) matrix"):
        permanent(np.ones((2, 2)), (2, 1))
    with pytest.raises(CapacityError):
        permanent(np.ones((PERMANENT_CAP + 1, 1)), (PERMANENT_CAP + 1,))
    assert permanent(np.ones((0, 2)), (0, 0)) == 1
    assert permanent(np.ones((3, 2)), np.array([0, 3])) == pytest.approx(6)


def test_permanent_cap():
    with pytest.raises(CapacityError):
        permanent(np.eye(PERMANENT_CAP + 1))


def test_permanent_needs_square():
    with pytest.raises(ShapeError):
        permanent(np.ones((2, 3)))


# Closed forms across the whole cap, where the permutation-sum oracle cannot
# reach; test_permanent_all_ones_is_factorial is one of them.

def _complex_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("n", range(1, PERMANENT_CAP + 1))
def test_permanent_of_rank_one(n):
    rng = np.random.default_rng(RNG_SEED + n)
    x, y = _complex_vector(rng, n), _complex_vector(rng, n)
    expected = math.factorial(n) * np.prod(x) * np.prod(y)
    assert permanent(np.outer(x, y)) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("n", range(1, PERMANENT_CAP + 1))
def test_permanent_of_permuted_diagonal(n):
    rng = np.random.default_rng(RNG_SEED + n)
    d = _complex_vector(rng, n)
    m = np.eye(n)[rng.permutation(n)] @ np.diag(d)
    assert permanent(m) == pytest.approx(np.prod(d), rel=1e-10)


def test_permanent_of_block_diagonal():
    rng = np.random.default_rng(RNG_SEED)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = np.zeros((16, 16), dtype=complex)
    m[:8, :8], m[8:, 8:] = a, b
    expected = naive_permanent(a) * naive_permanent(b)
    assert permanent(m) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("dtype", [complex, float, int])
def test_permanent_leaves_its_argument_alone(dtype):
    m = (np.arange(25).reshape(5, 5) % 4 - 1).astype(dtype)
    before = m.copy()
    assert permanent(m) == pytest.approx(naive_permanent(m), rel=1e-12)
    assert m.dtype == dtype
    assert np.array_equal(m, before)


@pytest.mark.parametrize("call", [
    lambda m: transition_amplitude(m, (1, 0), (0, 1)),
    lambda m: fock_hamiltonian(m, enumerate_basis(2, 1)),
], ids=["transition_amplitude", "fock_hamiltonian"])
def test_non_square_matrix_rejected(call):
    with pytest.raises(ShapeError):
        call(np.ones((2, 3)))


def test_fock_hamiltonian_rejects_a_coupling_of_another_mode_count():
    with pytest.raises(ShapeError, match="coupling matrix has 3 modes, basis has 2"):
        fock_hamiltonian(np.eye(3), enumerate_basis(2, 1))


# --- transition_amplitude ----------------------------------------------------

def test_hom_dip(hadamard_splitter):
    amp = transition_amplitude(hadamard_splitter, (1, 1), (1, 1))
    assert amp == pytest.approx(0.0, abs=1e-15)


def test_hom_bunching(hadamard_splitter):
    amp = transition_amplitude(hadamard_splitter, (1, 1), (2, 0))
    assert amp == pytest.approx(1 / math.sqrt(2))


def test_vacuum_amplitude_is_one(hadamard_splitter):
    assert transition_amplitude(hadamard_splitter, (0, 0), (0, 0)) == 1.0


def test_pair_amplitude_from_raw_splitter(splitter_ii):
    # as-stored orientation: the amplitude is sqrt(2) * M[0,2] * M[0,3]
    amp = transition_amplitude(splitter_ii, (0, 0, 1, 1), (2, 0, 0, 0))
    assert amp == pytest.approx(math.sqrt(2) * splitter_ii[0, 2] * splitter_ii[0, 3])
    assert abs(amp) == pytest.approx(0.3394, abs=1e-4)
    assert np.angle(amp, deg=True) == pytest.approx(47.0, abs=1e-9)


def test_pair_amplitude_oriented_matches_quoted_value(splitter_ii, operator_ii):
    # evolution orientation reproduces the quoted 0.339 at +48 degrees
    raw = transition_amplitude(evolution_operator(splitter_ii), (0, 0, 1, 1), (2, 0, 0, 0))
    assert abs(raw) == pytest.approx(0.3394, abs=1e-4)
    assert np.angle(raw, deg=True) == pytest.approx(48.0, abs=1e-9)
    projected = transition_amplitude(operator_ii, (0, 0, 1, 1), (2, 0, 0, 0))
    assert abs(projected) == pytest.approx(0.339, abs=0.02)
    assert np.angle(projected, deg=True) == pytest.approx(48.0, abs=4.0)


def test_transition_amplitudes_match_naive_oracle_up_to_6_photons():
    rng = np.random.default_rng(RNG_SEED)
    u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ports = np.arange(4)
    for photons in range(7):
        states = enumerate_basis(4, photons).states
        for occ_in in states:
            for occ_out in states:
                ref = naive_permanent(u[np.repeat(ports, occ_out)][:, np.repeat(ports, occ_in)])
                ref /= math.sqrt(math.prod(map(math.factorial, occ_in + occ_out)))
                got = transition_amplitude(u, occ_in, occ_out)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (occ_in, occ_out)


@pytest.mark.parametrize("role", ["input", "output"])
@pytest.mark.parametrize("bad", [1.7, 1.0, np.float64(1.0), True, "1"],
                         ids=["1.7", "1.0", "float64", "bool", "str"])
def test_non_integer_occupation_rejected(role, bad):
    other, state = (1, 0), (bad, 0)
    pair = (state, other) if role == "input" else (other, state)
    with pytest.raises(ShapeError, match=f"{role} occupations must be integers"):
        transition_amplitude(np.eye(2), *pair)


def test_numpy_integer_occupations_accepted(hadamard_splitter):
    amp = transition_amplitude(hadamard_splitter, np.array([1, 1]), (np.int64(2), 0))
    assert amp == pytest.approx(1 / math.sqrt(2))


def test_cached_ports_still_check_equal_tuples(hadamard_splitter):
    # 1.0, True and np.int64(1) equal 1, so these tuples find the cached entries
    plain = transition_amplitude(hadamard_splitter, (1, 1), (2, 0))
    transition_amplitude(hadamard_splitter, (2, 0), (1, 1))
    for bad in [(1.0, 1.0), (True, True)]:
        for role, pair in [("input", (bad, (2, 0))), ("output", ((2, 0), bad))]:
            with pytest.raises(ShapeError, match=f"{role} occupations must be integers"):
                transition_amplitude(hadamard_splitter, *pair)
    wide = transition_amplitude(hadamard_splitter, (np.int64(1), np.int64(1)), (2, 0))
    assert wide == plain and repr(wide) == repr(plain)


def test_cached_amplitude_checks_its_occupations_once(monkeypatch):
    u = haar_unitary(3, np.random.default_rng(RNG_SEED))
    expected = [transition_amplitude(u, (1, 1, 1), occ) for occ in [(2, 1, 0), (0, 0, 3)]]
    built_from = [evolve._port_cache[occ].occ for occ in [(1, 1, 1), (2, 1, 0), (0, 0, 3)]]

    def no_check(occ, role):
        raise AssertionError(f"{role} checked again")
    monkeypatch.setattr(evolve, "_whole", no_check)
    got = [transition_amplitude(u, built_from[0], occ) for occ in built_from[1:]]
    assert got == expected and repr(got) == repr(expected)


@pytest.mark.parametrize("used", [False, True], ids=["fresh", "after-transition-amplitude"])
def test_permanent_checks_plain_counts(used):
    u = haar_unitary(3, np.random.default_rng(RNG_SEED))
    a = u[:2].T.copy()  # (3, 2): columns repeated (2, 1) times
    if used:  # its counts (2, 1) reach permanent already checked
        transition_amplitude(u, (1, 1, 1), (2, 1, 0))
    expected = permanent(a, (2, 1))
    assert abs(expected - naive_permanent(a[:, [0, 0, 1]])) <= 1e-14
    for counts in [[2, 1], (np.int64(2), np.int64(1)), np.array([2, 1])]:
        got = permanent(a, counts)
        assert got == expected and repr(got) == repr(expected)
    ascending = permanent(a[:, ::-1], (1, 2))
    assert ascending == expected and repr(ascending) == repr(expected)
    with pytest.raises(ShapeError, match="column counts must be integers"):
        permanent(a, (2.0, 1.0))
    with pytest.raises(ShapeError, match="column counts must be non-negative"):
        permanent(np.ones((3, 3)), (3, 1, -1))


@pytest.mark.parametrize("bad", [5, None, 1.0, "10", ([1], 0), (np.array(1), 0)],
                         ids=["int", "None", "float", "str", "list-entry", "array-entry"])
def test_occupations_that_are_not_integer_sequences_are_shape_errors(hadamard_splitter, bad):
    transition_amplitude(hadamard_splitter, (1, 0), (1, 0))  # a cached entry to hit
    with pytest.raises(ShapeError, match="input occupations must be"):
        transition_amplitude(hadamard_splitter, bad, (1, 0))
    with pytest.raises(ShapeError, match="output occupations must be"):
        transition_amplitude(hadamard_splitter, (1, 0), bad)


def test_permanent_arrays_numpy_cannot_read_are_shape_errors():
    for ragged in ([[1, 2], [3]], [[1, 2], [3, "x"]]):
        with pytest.raises(ShapeError, match="expected an array of numbers"):
            permanent(ragged)
        with pytest.raises(ShapeError, match="expected an array of numbers"):
            permanent(ragged, (1, 1))


def test_photon_mismatch_rejected(hadamard_splitter):
    with pytest.raises(ShapeError):
        transition_amplitude(hadamard_splitter, (1, 1), (1, 0))
    with pytest.raises(ShapeError):
        transition_amplitude(hadamard_splitter, (1, 1, 0), (1, 1))


def test_transition_amplitude_refuses_more_photons_than_the_cap(monkeypatch):
    def no_ports(occ):
        raise AssertionError("port indices built")
    monkeypatch.setattr(evolve, "_new_ports", no_ports)
    big = (PERMANENT_CAP + 1, 0)
    with pytest.raises(CapacityError, match="exceeds the cap of 16"):
        transition_amplitude(np.eye(2), big, big)


# --- bunched closed form -------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_one_column_permanent_is_the_closed_form(n):
    rng = np.random.default_rng(RNG_SEED + n)
    col = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = permanent(col[:, None], (n,))
    assert got == pytest.approx(naive_permanent(np.repeat(col[:, None], n, axis=1)),
                                rel=1e-14, abs=0)
    assert got == math.factorial(n) * math.prod(col.tolist())


def _bunched_pairs(n: int):
    """(input, output, n, index of U) for every amplitude with a side bunched into one of
    4 ports: <N e_j|S|n> = sqrt(N!/prod n_i!) prod_i U[j,i]^n_i, and <n|S|N e_j> the
    same over U[:, j]."""
    for j in range(4):
        bunched = tuple(n if i == j else 0 for i in range(4))
        for occ in enumerate_basis(4, n).states:
            yield occ, bunched, occ, (j, slice(None))
            yield bunched, occ, occ, (slice(None), j)


def _output_glynn_amplitude(u, occ_in, occ_out):
    """<out|S|in> by the Glynn sum counted on the output, as before the input side could
    be counted; an output bunched into one port is split into two copies of that port,
    so no closed form applies."""
    ports = [j for j, k in enumerate(occ_out) if k]
    counts = [occ_out[j] for j in ports]
    if len(ports) == 1:
        ports, counts = ports * 2, [counts[0] - 1, 1]
    a = u[np.ix_(ports, np.repeat(np.arange(len(occ_in)), occ_in))].T
    norm = math.prod(map(math.factorial, occ_in + occ_out))
    return permanent(a, counts) / math.sqrt(norm)


@pytest.mark.parametrize("seed", range(2))
def test_bunched_amplitudes_meet_the_closed_form(seed):
    u = haar_unitary(4, np.random.default_rng(RNG_SEED + seed))
    for n in range(1, PERMANENT_CAP + 1):
        for occ_in, occ_out, occ, line in _bunched_pairs(n):
            scale = math.sqrt(math.factorial(n) / math.prod(map(math.factorial, occ)))
            closed = scale * np.prod(u[line] ** np.array(occ))
            got = transition_amplitude(u, occ_in, occ_out)
            assert abs(got - closed) <= 1e-15 * scale, (occ_in, occ_out)
            if n > 1:
                glynn = _output_glynn_amplitude(u, occ_in, occ_out)
                assert abs(got - glynn) <= 1e-12, (occ_in, occ_out)


def test_bunched_amplitudes_build_no_glynn_table(monkeypatch, operator_ii):
    def no_table(counts):
        raise AssertionError(f"Glynn table built for {counts}")
    monkeypatch.setattr(evolve, "_glynn_table", no_table)
    for n in (1, 2, 9, PERMANENT_CAP):
        for occ_in, occ_out, _, _ in _bunched_pairs(n):
            transition_amplitude(operator_ii, occ_in, occ_out)
    _, state = state_from_spec("9,0,0,0")
    assert evolve_state(operator_ii, state).norm() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(AssertionError, match="Glynn table built"):
        transition_amplitude(operator_ii, (1, 1, 0, 0), (0, 1, 1, 0))


# --- cached bases, Glynn tables and port indices ------------------------------

def test_cached_tables_are_read_only(hadamard_splitter):
    transition_amplitude(hadamard_splitter, (2, 1), (1, 2))
    coeffs, weights = evolve._glynn_table((2, 1))
    ports = evolve._port_cache[(2, 1)]
    for table in (coeffs, weights, ports.repeated, ports.occupied):
        with pytest.raises(ValueError):
            table[0] = 0


def test_sign_tables_are_complex():
    for counts in [(1,) * n for n in range(1, 10)] + [(8,), (3, 2, 2)]:
        coeffs, weights = evolve._glynn_table(counts)
        assert coeffs.dtype == weights.dtype == complex
        assert coeffs.shape == (len(counts), weights.size)


@pytest.mark.parametrize("n", range(1, 10))
def test_all_ones_table_is_the_plain_glynn_table(n):
    coeffs, weights = evolve._glynn_table((1,) * n)
    assert coeffs.shape == (n, 2 ** (n - 1))
    flips = (np.arange(2 ** (n - 1)) >> np.arange(n - 1)[:, None]) & 1
    deltas = np.vstack([np.ones((1, 2 ** (n - 1))), 1.0 - 2.0 * flips])
    assert np.array_equal(coeffs, deltas)
    assert np.array_equal(weights, deltas.prod(axis=0) / 2 ** (n - 1))


# (m_0 // 2 + 1) prod_(r>0) (m_r + 1) terms against 2^(n-1) unbunched
@pytest.mark.parametrize("counts, terms", [((8,), 5), ((5,), 3), ((4, 3, 1), 24),
                                           ((2, 2, 2, 2), 54), ((6, 1, 0), 8)])
def test_table_term_count(counts, terms):
    coeffs, weights = evolve._glynn_table(counts)
    assert weights.size == coeffs.shape[1] == terms


def test_table_cache_stays_small_at_16_photons(operator_ii, monkeypatch):
    monkeypatch.setattr(evolve, "_table_cache", fock.BoundedCache(fock.CACHE_BYTES))
    _, state = state_from_spec("4,4,4,4")
    evolve_state(operator_ii, state)
    # one table per partition of 16 into 2 to 4 parts, 0.65 MiB together; (16,)
    # takes the closed form
    assert len(evolve._table_cache) == 63
    held = sum(c.nbytes + w.nbytes for c, w in evolve._table_cache.values())
    assert evolve._table_cache.total == held < 2 ** 20


# Per cache: its module and name, a small limit, keys in admission order, the
# call that admits one, the size it is admitted with, and a key over the limit.
_CACHES = {
    "basis": (fock, "_basis_cache", 300_000, [(m, n) for m in range(2, 6) for n in range(9)],
              lambda key: enumerate_basis(*key),
              lambda key, basis: fock._footprint(*key, len(basis)), (12, 5)),
    "table": (evolve, "_table_cache", 2 ** 16,
              [(1,) * n for n in range(1, 10)] + [(3, 2, 2), (4, 3, 1), (2, 2, 2, 2)],
              evolve._glynn_table, lambda key, table: sum(t.nbytes for t in table), (1,) * 11),
    "port": (evolve, "_port_cache", 7, list(enumerate_basis(4, 3)),
             lambda occ: evolve._ports(occ, 4, "input"), lambda key, ports: 1, None),
}


@pytest.mark.parametrize("name", _CACHES)
def test_cache_stays_within_its_bound(monkeypatch, name):
    module, attr, limit, keys, admit, size_of, over = _CACHES[name]
    cache = fock.BoundedCache(limit)
    monkeypatch.setattr(module, attr, cache)
    for key in keys:
        assert size_of(key, admit(key)) <= limit
        assert key in cache
        assert cache.total == sum(size_of(*entry) for entry in cache.items()) <= limit
    # the oldest went first: what is left is the newest keys, in order
    assert list(cache) == keys[-len(cache):]
    assert len(cache) < len(keys)
    kept, total = dict(cache), cache.total
    value = object()
    assert cache.admit("over", value, limit + 1) is value
    if over is not None:
        first = admit(over)
        assert size_of(over, first) > limit
        assert admit(over) is not first
    assert cache == kept and cache.total == total
    admit(keys[0])  # evicted long ago: admitted again as the newest
    assert list(cache)[-1] == keys[0]
    assert cache.total == sum(size_of(*entry) for entry in cache.items()) <= limit


def test_caches_fill_from_many_threads(monkeypatch):
    u = haar_unitary(6, np.random.default_rng(RNG_SEED))
    rng = np.random.default_rng(RNG_SEED + 1)
    pairs = []
    for n in range(2, 7):
        states = enumerate_basis(6, n).states
        pairs += [(states[i], states[j]) for i, j in rng.integers(len(states), size=(40, 2))]
    expected = [transition_amplitude(u, *pair) for pair in pairs]
    # emptied, with limits small enough that they keep evicting
    for cache, limit in [(evolve._port_cache, 8), (evolve._table_cache, 4096)]:
        cache.clear()
        monkeypatch.setattr(cache, "limit", limit)
    results, errors = [], []

    def amplitudes(offset):
        try:
            got = [None] * len(pairs)
            for i in [*range(offset, len(pairs)), *range(offset)]:
                got[i] = transition_amplitude(u, *pairs[i])
            results.append(got)
        except Exception as exc:  # a thread cannot fail the test itself; asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=amplitudes, args=(25 * k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 8
    for got in results:
        assert got == expected and repr(got) == repr(expected)
    ports, tables = evolve._port_cache, evolve._table_cache
    assert ports.total == len(ports) <= 8
    assert tables.total == sum(c.nbytes + w.nbytes for c, w in tables.values()) <= 4096


@pytest.mark.parametrize("n", range(1, 10))
def test_permanent_of_float_matrix_equals_its_complex_copy_bit_for_bit(n):
    m = np.random.default_rng(RNG_SEED + n).standard_normal((n, n))
    a, b = permanent(m), permanent(m.astype(complex))
    assert a == b and repr(a) == repr(b)


def test_numpy_int_occupations_match_plain_ints_bit_for_bit(operator_ii):
    evolve._port_cache.clear()
    pairs = [(occ_in, occ_out) for occ_in in enumerate_basis(4, 4)
             for occ_out in ((4, 0, 0, 0), (1, 1, 1, 1), (0, 2, 0, 2))]
    wide = [transition_amplitude(operator_ii, np.array(occ_in, dtype=np.int64),
                                 tuple(np.int64(k) for k in occ_out))
            for occ_in, occ_out in pairs]
    assert evolve._port_cache
    assert all(type(k) is int for key in evolve._port_cache for k in key)
    assert all(type(k) is int for key in evolve._table_cache for k in key)
    for (occ_in, occ_out), amp in zip(pairs, wide):
        plain = transition_amplitude(operator_ii, occ_in, occ_out)
        assert plain == amp and repr(plain) == repr(amp)


@pytest.mark.parametrize("bound", [evolve.PORT_CACHE_SIZE, 7])
def test_port_cache_stays_within_its_bound(operator_ii, monkeypatch, bound):
    evolve._port_cache.clear()
    expected = sweep_inputs(operator_ii, 8)
    monkeypatch.setattr(evolve, "_port_cache", fock.BoundedCache(bound))
    assert sweep_inputs(operator_ii, 8) == expected
    assert 0 < len(evolve._port_cache) <= bound


# --- evolve_state ------------------------------------------------------------

def test_identity_evolution_is_identity():
    _, state = state_from_spec("0.6*|2,0,0> + 0.8*|0,1,1>")
    table = evolve_state(np.eye(3), state)
    assert np.allclose(table.amplitudes, state.amplitudes, atol=1e-12)


def test_evolve_rejects_non_unitary(splitter_ii):
    _, state = state_from_spec("0,0,1,1")
    with pytest.raises(NotUnitaryError):
        evolve_state(splitter_ii, state)


@pytest.mark.parametrize("consume", [
    lambda u: evolve_state(u, state_from_spec("1,1,0,0")[1]),
    lambda u: sweep_inputs(u, 2),
    effective_hamiltonian,
], ids=["evolve_state", "sweep_inputs", "effective_hamiltonian"])
def test_shared_unitarity_contract(consume):
    u = haar_unitary(4, np.random.default_rng(RNG_SEED))
    near = u * (1 + 5e-10)  # M^H M = (1 + 1e-9) I
    assert max_unitarity_defect(near) == pytest.approx(1e-9, rel=1e-3)
    with pytest.raises(NotUnitaryError):
        consume(near)
    consume(unitarize(near))


def test_evolve_rejects_unnormalized(operator_ii):
    basis = enumerate_basis(4, 1)
    state = QuantumState(basis, np.array([0.5, 0, 0, 0]))
    with pytest.raises(InputError):
        evolve_state(operator_ii, state)


@pytest.mark.parametrize("route", [
    evolve_state,
    lambda u, state: evolve_state_hamiltonian(effective_hamiltonian(u), state),
], ids=["evolve_state", "evolve_state_hamiltonian"])
def test_both_routes_reject_unnormalized(operator_ii, route):
    _, state = state_from_spec("|0,0,1,1> + |1,1,0,0>")
    with pytest.raises(InputError, match="normalized"):
        route(operator_ii, QuantumState(state.basis, 2 * state.amplitudes))


def test_evolve_rejects_mode_mismatch(operator_ii):
    _, state = state_from_spec("0,0,1")
    with pytest.raises(ShapeError):
        evolve_state(operator_ii, state)


def test_pair_input_quoted_magnitudes(operator_ii):
    _, state = state_from_spec("0,0,1,1")
    table = evolve_state(operator_ii, state)
    assert abs(table.amplitude((1, 1, 0, 0))) == pytest.approx(0.470, abs=0.02)
    assert abs(table.amplitude((0, 0, 1, 1))) == pytest.approx(0.499, abs=0.02)
    assert abs(table.amplitude((1, 0, 0, 1))) == pytest.approx(0.085, abs=0.02)
    assert table.norm() == pytest.approx(1.0, abs=1e-9)


def test_triple_input_quoted_bunched_magnitudes(operator_ii):
    _, state = state_from_spec("0,1,1,1")
    table = evolve_state(operator_ii, state)
    quoted = {(3, 0, 0, 0): 0.335, (0, 3, 0, 0): 0.259,
              (0, 0, 3, 0): 0.290, (0, 0, 0, 3): 0.291}
    for occ, mag in quoted.items():
        assert abs(table.amplitude(occ)) == pytest.approx(mag, abs=0.02)


def test_hom_output_state(symmetric_splitter):
    _, state = state_from_spec("1,1")
    out = evolve_state(symmetric_splitter, state).canonical()
    expected = np.zeros(3, dtype=complex)
    basis = out.basis
    expected[basis.index_of((2, 0))] = 1 / math.sqrt(2)
    expected[basis.index_of((0, 2))] = 1 / math.sqrt(2)
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize("modes,k", [(4, 1), (4, 2), (4, 3), (4, 4), (6, 1), (6, 2), (8, 1)])
def test_fourier_multiport_suppression_law(modes, k):
    # A cyclic shift of the input ports leaves (k, ..., k) unchanged and, through
    # the Fourier matrix, multiplies the output s by w^(sum_j j s_j): every
    # output with sum_j j s_j != 0 mod m is suppressed (Tichy et al., PRL 104,
    # 220405, 2010).
    basis = enumerate_basis(modes, modes * k)
    table = evolve_state(fourier_unitary(modes),
                         QuantumState.from_occupations(basis, (k,) * modes))
    suppressed = basis.occupations @ np.arange(modes) % modes != 0
    assert suppressed.any()
    assert np.max(np.abs(table.amplitudes[suppressed])) <= 1e-12
    assert abs(np.linalg.norm(table.amplitudes[~suppressed]) - 1.0) <= 1e-12


@st.composite
def _haar_fock_case(draw):
    """A Haar unitary on 2-5 ports and a Fock input of 1-5 photons over them."""
    modes = draw(st.integers(2, 5))
    photons = draw(st.integers(1, 5))
    ports = draw(st.lists(st.integers(0, modes - 1), min_size=photons, max_size=photons))
    u = haar_unitary(modes, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    return u, tuple(map(ports.count, range(modes)))


# A basis cache kept across the draws below, small enough that their bases
# keep evicting each other.
_small_cache = fock.BoundedCache(64 * 1024)


def _on_a_small_basis_cache(occ, *routes):
    """Each route's output amplitudes for the Fock input `occ`, bases from the small cache."""
    with mock.patch.object(fock, "_basis_cache", _small_cache):
        basis = enumerate_basis(len(occ), sum(occ))
        state = QuantumState.from_occupations(basis, occ)
        outputs = [route(state).amplitudes for route in routes]
        assert _small_cache.total <= _small_cache.limit
    return outputs


@settings(max_examples=40, deadline=None)
@given(case=_haar_fock_case())
def test_haar_permanent_route_matches_the_hamiltonian_route(case):
    u, occ = case
    by_permanent, by_generator = _on_a_small_basis_cache(
        occ, lambda state: evolve_state(u, state),
        lambda state: evolve_state_hamiltonian(effective_hamiltonian(u), state))
    assert np.max(np.abs(by_permanent - by_generator)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(case=_haar_fock_case(), data=st.data())
def test_permuting_the_rows_of_u_permutes_the_output_occupations(case, data):
    # U'[j] = U[perm[j]] gives output s the amplitude U gives t, t[perm[j]] = s[j]
    u, occ = case
    perm = data.draw(st.permutations(range(len(occ))))
    out, permuted = _on_a_small_basis_cache(occ, lambda state: evolve_state(u, state),
                                            lambda state: evolve_state(u[perm], state))
    basis = enumerate_basis(len(occ), sum(occ))
    source = [basis.index_of(t) for t in basis.occupations[:, np.argsort(perm)].tolist()]
    assert np.max(np.abs(permuted - out[source])) <= 1e-12


def test_norm_conservation_on_random_unitaries():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        u = haar_unitary(4, rng)
        occ = random_fock_input(4, int(rng.integers(1, 5)), rng)
        basis = enumerate_basis(4, sum(occ))
        table = evolve_state(u, QuantumState.from_occupations(basis, occ))
        assert abs(table.norm() - 1.0) <= 1e-9


def test_evolution_is_linear(operator_ii):
    _, superposed = state_from_spec("|0,0,1,1> + |1,1,0,0>")
    _, a = state_from_spec("0,0,1,1")
    _, b = state_from_spec("1,1,0,0")
    combined = evolve_state(operator_ii, superposed)
    separate = (evolve_state(operator_ii, a).amplitudes
                + evolve_state(operator_ii, b).amplitudes) / math.sqrt(2)
    assert np.allclose(combined.amplitudes, separate, atol=1e-12)


def test_sorted_components_order(operator_ii):
    _, state = state_from_spec("0,0,1,1")
    pairs = evolve_state(operator_ii, state).sorted_components()
    mags = [abs(a) for _, a in pairs]
    assert mags == sorted(mags, reverse=True)
    assert pairs[0][0] == (0, 0, 1, 1)


def test_sorted_components_ties_keep_basis_order():
    # |2,0> and |0,2> tie up to rounding noise, which must not reorder them.
    basis = enumerate_basis(2, 2)
    table = TransitionTable(basis, [0.6, 0.2, 0.6j * (1 + 1e-15)],
                            input=QuantumState.from_occupations(basis, (1, 1)))
    assert [occ for occ, _ in table.sorted_components()] == [(2, 0), (0, 2), (1, 1)]


def test_evolution_operator_transposes(splitter_ii):
    assert np.array_equal(evolution_operator(splitter_ii), splitter_ii.T)


# --- Hamiltonian route -------------------------------------------------------

def test_zero_coupling_is_identity_evolution():
    _, state = state_from_spec("0,1,1,1")
    table = evolve_state_hamiltonian(np.zeros((4, 4)), state)
    assert np.allclose(table.amplitudes, state.amplitudes, atol=1e-12)


def test_number_operator_coupling():
    # A = diag(theta, 0, ...) phases each state by exp(-i theta n_0)
    theta = 0.83
    a = np.diag([theta, 0.0, 0.0]).astype(complex)
    _, state = state_from_spec("|2,1,0> + |0,2,1> + |1,1,1>")
    table = evolve_state_hamiltonian(a, state)
    for occ, amp_in in zip(state.basis.states, state.amplitudes):
        expected = amp_in * np.exp(-1j * theta * occ[0])
        assert table.amplitude(occ) == pytest.approx(expected, abs=1e-12)


def test_fock_hamiltonian_is_hermitian():
    rng = np.random.default_rng(RNG_SEED)
    basis = enumerate_basis(4, 3)
    h = fock_hamiltonian(random_hermitian(4, rng), basis)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_coupling_must_be_hermitian():
    _, state = state_from_spec("1,0")
    with pytest.raises(NotHermitianError):
        evolve_state_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), state)


def test_methods_agree_for_bundled_splitter(operator_ii):
    a = effective_hamiltonian(operator_ii)
    for spec in ("0,0,1,1", "2,2,2,2"):  # 10 and 165 amplitudes
        _, state = state_from_spec(spec)
        by_permanent = evolve_state(operator_ii, state)
        by_hamiltonian = evolve_state_hamiltonian(a, state)
        assert np.max(np.abs(by_permanent.amplitudes - by_hamiltonian.amplitudes)) <= 1e-10


def _coupling_with_zeros(modes, rng, scale=1.0):
    a = random_hermitian(modes, rng, scale)
    zero = rng.random((modes, modes)) < 0.3
    a[zero | zero.T] = 0
    return a


@pytest.mark.parametrize("modes,photons", [
    *((m, n) for m in range(1, 5) for n in range(9)),
    *((5, n) for n in range(6)),
    (41, 2), (64, 1),  # many modes, few photons
])
def test_fock_hamiltonian_matches_loop_bit_for_bit(modes, photons):
    rng = np.random.default_rng(RNG_SEED + 10 * modes + photons)
    a = _coupling_with_zeros(modes, rng)
    basis = enumerate_basis(modes, photons)
    assert np.array_equal(fock_hamiltonian(a, basis), loop_fock_hamiltonian(a, basis))


def _random_state(basis, rng):
    amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    return QuantumState(basis, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("scale", [0.0, 1e-6, 1.0, 10.0])
def test_propagation_matches_scipy_expm(scale):
    rng = np.random.default_rng(RNG_SEED)
    a = _coupling_with_zeros(4, rng, scale)
    state = _random_state(enumerate_basis(4, 5), rng)
    out = evolve_state_hamiltonian(a, state).amplitudes
    expected = scipy.linalg.expm(-1j * fock_hamiltonian(a, state.basis)) @ state.amplitudes
    assert np.max(np.abs(out - expected)) <= 1e-12
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_propagation_matches_dense_exponential_at_dim_680(operator_ii):
    a = effective_hamiltonian(operator_ii)
    _, state = state_from_spec("5,3,3,3")
    assert len(state.basis) == 680
    out = evolve_state_hamiltonian(a, state).amplitudes
    expected = matrix_exp(fock_hamiltonian(a, state.basis)) @ state.amplitudes
    assert np.max(np.abs(out - expected)) <= 1e-12
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_propagation_with_a_wide_spectrum():
    # H = 100 n_0 on 20 photons spans [0, 2000]: about a thousand Chebyshev
    # terms, where a fixed margin of 64 past the order 1000 truncates at 5e-9.
    theta = 100.0
    basis = enumerate_basis(2, 20)
    state = QuantumState(basis, np.full(len(basis), 1 / math.sqrt(len(basis))))
    out = evolve_state_hamiltonian(np.diag([theta, 0.0]), state).amplitudes
    n0 = np.array(basis.states)[:, 0]
    assert np.max(np.abs(out - state.amplitudes * np.exp(-1j * theta * n0))) <= 1e-12


def test_zero_coupling_returns_input_bit_for_bit():
    state = _random_state(enumerate_basis(3, 4), np.random.default_rng(RNG_SEED))
    table = evolve_state_hamiltonian(np.zeros((3, 3)), state)
    assert np.array_equal(table.amplitudes, state.amplitudes)


def test_identity_coupling_takes_one_phase_on_2300_states():
    state = _random_state(enumerate_basis(4, 22), np.random.default_rng(RNG_SEED))
    assert len(state.basis) == 2300
    out = evolve_state_hamiltonian(np.eye(4), state).amplitudes
    assert np.max(np.abs(out - np.exp(-22j) * state.amplitudes)) <= 1e-12


@pytest.mark.parametrize("spec,dim", [("8,8,8,8", 6545), ("10,10,10,10", 12341)])
def test_route_above_2048_states_meets_the_bunched_closed_form(operator_ii, spec, dim):
    _, state = state_from_spec(spec)
    n = np.array(spec.split(","), dtype=int)
    total = int(n.sum())
    assert len(state.basis) == dim
    generator = effective_hamiltonian(operator_ii)
    out = evolve_state_hamiltonian(generator, state)
    assert abs(out.norm() - 1.0) <= 1e-12
    # a second run on the one shared basis reuses its ladder and gives the same bits
    basis, same = state_from_spec(spec)
    assert basis is state.basis
    twice = evolve_state_hamiltonian(generator, same).amplitudes
    assert twice.tobytes() == out.amplitudes.tobytes()
    for j, closed in enumerate(bunched_amplitudes(operator_ii, n)):
        bunched = out.amplitude(tuple(total if i == j else 0 for i in range(4)))
        assert abs(bunched - closed) <= 1e-12


def test_hamiltonian_route_refuses_a_long_series_before_the_fft(monkeypatch):
    # H = 1e8 n_0 on 20 photons spans [0, 2e9]: about 1e9 Chebyshev terms.
    def never(*args, **kwargs):
        raise AssertionError("series coefficients computed for a refused series")

    monkeypatch.setattr(np.fft, "fft", never)
    state = QuantumState.from_occupations(enumerate_basis(2, 20), (10, 10))
    with pytest.raises(CapacityError, match=r"Chebyshev terms of 202 operations each"):
        evolve_state_hamiltonian(np.diag([1e8, 0.0]), state)


@pytest.mark.parametrize("coupling", [
    [[0.0, 1.0], [1.0 + 0.9e-10, 0.0]],
    [[0.0, 1e-10], [0.0, 0.0]],  # a[1,0] == 0: the a[0,1] entries have no stored mirror
], ids=["mirror-differs", "mirror-missing"])
def test_generator_check_refuses_a_coupling_just_inside_the_tolerance(coupling):
    # The coupling passes HERMITIAN_TOL; its generator entries, up to
    # sqrt(10 * 11) times larger, do not.
    state = QuantumState.from_occupations(enumerate_basis(2, 20), (10, 10))
    with pytest.raises(NotHermitianError):
        evolve_state_hamiltonian(np.array(coupling), state)


def test_generator_check_counts_a_missing_mirror_block_as_zero():
    # a[1,0] == 0 leaves the mirror block out; the a[0,1] entries, below
    # 2e-11, are within HERMITIAN_TOL of zero.
    state = QuantumState.from_occupations(enumerate_basis(2, 20), (10, 10))
    out = evolve_state_hamiltonian(np.array([[0.0, 1e-12], [0.0, 0.0]]), state)
    assert abs(out.norm() - 1.0) <= 1e-9


@pytest.mark.parametrize("diagonal, occupations", [
    ([1e308, 0.0], (3, 0)),
    ([1e308, -1e308], (1, 1)),
    ([1e308, 1e308], (1, 1)),  # both ends of the interval overflow
], ids=["one-end", "both-signs", "both-ends"])
def test_hamiltonian_route_refuses_an_interval_that_overflows(diagonal, occupations):
    # Every entry is finite, but n lambda overflows: the work estimate refuses the
    # series, without a warning, before any table is built.
    state = QuantumState.from_occupations(enumerate_basis(2, sum(occupations)), occupations)
    with pytest.raises(CapacityError, match="Chebyshev terms"):
        evolve_state_hamiltonian(np.diag(diagonal), state)


@pytest.mark.parametrize("modes,photons", [(m, n) for m in range(1, 6) for n in range(9)])
def test_sparse_mat_vec_matches_the_dense_generator(modes, photons):
    rng = np.random.default_rng(RNG_SEED + 10 * modes + photons)
    a = _coupling_with_zeros(modes, rng)
    basis = enumerate_basis(modes, photons)
    x = _random_state(basis, rng).amplitudes
    raised, root, lowered = basis.ladder
    h = evolve._Generator(a, raised, root.astype(complex), lowered)
    assert np.max(np.abs(h @ x - fock_hamiltonian(a, basis) @ x)) <= 1e-13
    first = h @ x
    h @ _random_state(basis, rng).amplitudes  # overwrites the generator's products buffer
    assert np.max(np.abs(first - fock_hamiltonian(a, basis) @ x)) <= 1e-13


def test_hamiltonian_route_never_builds_the_dense_generator(monkeypatch, operator_ii):
    def never(*args):
        raise AssertionError("dense generator built")

    monkeypatch.setattr(evolve, "fock_hamiltonian", never)
    _, state = state_from_spec("5,3,3,3")
    out = evolve_state_hamiltonian(effective_hamiltonian(operator_ii), state)
    assert abs(out.norm() - 1.0) <= 1e-12


def test_hamiltonian_route_peak_memory_at_dim_2024(operator_ii):
    a = effective_hamiltonian(operator_ii)
    _, state = state_from_spec("6,5,5,5")
    assert len(state.basis) == 2024
    tracemalloc.start()
    try:
        evolve_state_hamiltonian(a, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _sparse_reference(a, basis):
    rows, cols, vals = evolve._generator_entries(a, basis)
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(len(basis),) * 2).tocsr()


@pytest.mark.parametrize("spec", ["5,3,3,3", "6,5,5,5"])
def test_propagation_matches_sparse_expm_multiply_on_the_splitter(operator_ii, spec):
    a = effective_hamiltonian(operator_ii)
    _, state = state_from_spec(spec)
    out = evolve_state_hamiltonian(a, state).amplitudes
    expected = expm_multiply(-1j * _sparse_reference(a, state.basis), state.amplitudes)
    assert np.max(np.abs(out - expected)) <= 1e-12


@pytest.mark.parametrize("modes,photons", [(3, 12), (4, 8), (5, 6)])
def test_propagation_matches_sparse_expm_multiply_with_zero_couplings(modes, photons):
    rng = np.random.default_rng(RNG_SEED + 10 * modes + photons)
    a = _coupling_with_zeros(modes, rng)
    state = _random_state(enumerate_basis(modes, photons), rng)
    out = evolve_state_hamiltonian(a, state).amplitudes
    expected = expm_multiply(-1j * _sparse_reference(a, state.basis), state.amplitudes)
    assert np.max(np.abs(out - expected)) <= 1e-12


@pytest.mark.parametrize("modes,photons", [(m, n) for m in range(1, 6) for n in range(9)])
def test_spectral_interval_is_exact_and_inside_the_gershgorin_interval(modes, photons):
    rng = np.random.default_rng(RNG_SEED + 10 * modes + photons)
    a = random_hermitian(modes, rng)
    h = fock_hamiltonian(a, enumerate_basis(modes, photons))
    lo, hi = evolve._spectral_interval(a, photons)
    tol = 1e-12 * (1 + photons * np.linalg.norm(a, 2))
    assert np.allclose((lo, hi), np.linalg.eigvalsh(h)[[0, -1]], rtol=0, atol=tol)
    centre, radius = h.diagonal().real, np.sum(np.abs(h), axis=1) - np.abs(np.diag(h))
    assert np.min(centre - radius) - tol <= lo <= hi <= np.max(centre + radius) + tol


@pytest.mark.parametrize("modes,photons", [(m, n) for m in range(2, 5) for n in range(1, 6)])
def test_spectral_interval_holds_the_eigenvalues_of_a_non_hermitian_generator(modes, photons):
    # eigvalsh reads the lower triangle alone; Bauer-Fike's margin must cover
    # the eigenvalues that the rest of A moves.
    rng = np.random.default_rng(RNG_SEED + 10 * modes + photons)
    e = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    a = random_hermitian(modes, rng) + 1e-3 * e
    lo, hi = evolve._spectral_interval(a, photons)
    z = np.linalg.eigvals(fock_hamiltonian(a, enumerate_basis(modes, photons)))
    assert lo <= np.min(z.real) and np.max(z.real) <= hi


@pytest.mark.parametrize("modes,photons", [(m, n) for m in range(1, 5) for n in range(1, 7)])
def test_generator_check_refuses_exactly_the_dense_generator_defect(modes, photons):
    # H - H^H is the generator of E - E^H for the non-Hermitian part E, so the
    # dense defect scales with E; the check must pass half the tolerance and
    # refuse twice it. E has zeros off its diagonal where the Hermitian part
    # has, so some of its blocks have no mirror.
    rng = np.random.default_rng(RNG_SEED + 10 * modes + photons)
    basis = enumerate_basis(modes, photons)
    hermitian = _coupling_with_zeros(modes, rng)
    e = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    e[(rng.random((modes, modes)) < 0.3) & ~np.eye(modes, dtype=bool)] = 0
    h = fock_hamiltonian(e, basis)
    defect = np.max(np.abs(h - h.conj().T))
    require_hermitian(hermitian + e * (0.5 * HERMITIAN_TOL / defect), photons)
    with pytest.raises(NotHermitianError):
        require_hermitian(hermitian + e * (2 * HERMITIAN_TOL / defect), photons)


def test_splitter_series_runs_56_mat_vecs_at_dim_680(monkeypatch, operator_ii):
    # A deterministic work counter: the series length on the exact interval
    # [14 lambda_min, 14 lambda_max]; any wider interval takes more terms.
    calls = []
    mat_vec = evolve._Generator.__matmul__
    monkeypatch.setattr(evolve._Generator, "__matmul__",
                        lambda h, x: calls.append(1) or mat_vec(h, x))
    _, state = state_from_spec("5,3,3,3")
    evolve_state_hamiltonian(effective_hamiltonian(operator_ii), state)
    assert len(calls) == 56


def test_hamiltonian_route_is_safe_under_threads(operator_ii):
    # Every call shares the basis and its ladder through enumerate_basis, and owns
    # the products buffers of its generators; concurrent calls give the serial result.
    a = effective_hamiltonian(operator_ii)
    _, state = state_from_spec("5,3,3,3")
    expected = evolve_state_hamiltonian(a, state).amplitudes
    results, errors = [], []

    def propagate():
        try:
            results.extend(evolve_state_hamiltonian(a, state).amplitudes for _ in range(4))
        except Exception as exc:  # a thread cannot fail the test itself; asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=propagate) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 32
    assert all(np.array_equal(got, expected) for got in results)


def test_hamiltonian_route_refuses_excess_work_before_any_table():
    # 32 terms at least, of (12^2 + 24) C(21, 11) + 12 C(22, 11) operations each
    basis = enumerate_basis(12, 11)
    state = QuantumState.from_occupations(basis, (11,) + (0,) * 11)
    assert len(basis) == 705432
    with pytest.raises(CapacityError, match=r"of 67721472 operations each on 705432 states"):
        evolve_state_hamiltonian(np.eye(12), state)
    assert "ladder" not in basis.__dict__


@pytest.mark.parametrize("modes", range(1, 6))
def test_vacuum_comes_back_bit_for_bit(modes):
    rng = np.random.default_rng(RNG_SEED + modes)
    state = QuantumState(enumerate_basis(modes, 0), np.array([0.6 - 0.8j]))
    out = evolve_state_hamiltonian(random_hermitian(modes, rng, 100.0), state)
    assert np.array_equal(out.amplitudes, state.amplitudes)


@pytest.mark.parametrize("photons", [1, 2, 7, 30])
@pytest.mark.parametrize("a00", [-3.7, 0.0, 1e-9, 0.62, 25.0])
def test_one_mode_state_takes_the_phase_of_its_photons(photons, a00):
    state = QuantumState(enumerate_basis(1, photons), np.array([0.6 - 0.8j]))
    out = evolve_state_hamiltonian(np.array([[a00]]), state).amplitudes
    expected = np.exp(-1j * photons * a00) * state.amplitudes
    assert np.max(np.abs(out - expected)) <= 1e-13 * (1 + photons * abs(a00))


def test_table_payload_formatting(operator_ii):
    _, state = state_from_spec("0,0,1,1")
    payload = evolve_state(operator_ii, state).to_payload()
    assert payload["input"] == "0,0,1,1"
    assert payload["modes"] == 4 and payload["photons"] == 2
    assert len(payload["amplitudes"]) == 10
    first = payload["amplitudes"][0]
    assert first["state"] == "2,0,0,0"
    # six-decimal fixed formatting
    assert len(str(first["mag"]).split(".")[1]) == 6
