"""One rule for what an occupation count is, across the public API.

Every constructor and entry point that takes counts or occupation tuples
accepts ints and numpy integers only: a bool, a float, a string or a
non-sequence is a ShapeError. A drawn argument is therefore accepted by every
entry point or refused by all of them, and no call escapes the NoonforgeError
family. `in` and `index_of` are queries with dict semantics and are pinned in
test_fock.py instead.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonforge import (FockBasis, InputError, NoonforgeError, QuantumState, ShapeError,
                       effective_hamiltonian, enumerate_basis, evolution_operator,
                       evolve_state, evolve_state_hamiltonian, fock_hamiltonian, matrix_exp,
                       noon_report, permanent, post_select, sweep_inputs,
                       transition_amplitude, unitarity_defect, unitarize)

from oracles import haar_unitary

MODES, PHOTONS = 3, 2
U = haar_unitary(MODES, np.random.default_rng(2026))
U2 = haar_unitary(2, np.random.default_rng(2027))
BASIS = enumerate_basis(MODES, PHOTONS)
STATE = QuantumState.from_occupations(BASIS, (1, 1, 0))
TABLE = evolve_state(U, STATE)
REFERENCE = (0, 1, 1)


def _spellings(n: int) -> list:
    """The count n as every entry point accepts it, then as none does."""
    whole = [n, np.int64(n), np.intp(n)] + ([np.uint8(n)] if n >= 0 else [])
    refused = [float(n), np.float64(n), str(n)] + ([bool(n), np.bool_(n)] if n in (0, 1) else [])
    return whole + refused


def _is_whole(n) -> bool:
    return (type(n) is int or isinstance(n, np.integer)) and n >= 0


def _entry(counts):
    return counts.flatmap(lambda n: st.sampled_from(_spellings(n)))


_ODD_ENTRIES = st.sampled_from([None, 2.5, math.nan, [1], np.array([1]), "x"])
_ENTRIES = st.one_of(_entry(st.integers(-1, 3)), _ODD_ENTRIES)
_NON_SEQUENCES = st.sampled_from([None, 5, 2.0, True, np.int64(2), np.array(2), object()])

_OCCUPATIONS = st.one_of(
    st.sampled_from(BASIS.states).flatmap(
        lambda s: st.tuples(*(st.sampled_from(_spellings(n)) for n in s))),
    st.sampled_from(BASIS.states).map(list),
    st.sampled_from(BASIS.states).map(np.array),
    st.lists(_ENTRIES, max_size=4).map(tuple),
    st.lists(_ENTRIES, max_size=4),
    _NON_SEQUENCES,
    st.sampled_from(["1,1,0", "110", ""]),
)
_COUNTS = st.one_of(_entry(st.sampled_from([-1, 1, 2, 3])), _ODD_ENTRIES, _NON_SEQUENCES)


def _outcomes(calls: dict) -> dict:
    """Each call's NoonforgeError, or None where it returned; any other exception escapes."""
    outcomes = {}
    for name, call in calls.items():
        try:
            call()
        except NoonforgeError as exc:
            outcomes[name] = exc
        else:
            outcomes[name] = None
    return outcomes


def _assert_one_verdict(outcomes: dict, typed: bool) -> None:
    """All accepted or all refused with an InputError; a ShapeError from each where
    the argument is a non-sequence or holds a value that is not an integer."""
    refused = {name: exc for name, exc in outcomes.items() if exc is not None}
    assert not refused or len(refused) == len(outcomes), outcomes
    assert all(isinstance(exc, InputError) for exc in refused.values()), refused
    if not typed:
        assert refused and all(isinstance(exc, ShapeError) for exc in refused.values()), refused


@settings(max_examples=400, derandomize=True, deadline=None)
@given(occ=_OCCUPATIONS)
def test_an_occupation_tuple_is_accepted_everywhere_or_nowhere(occ):
    _assert_one_verdict(_outcomes({
        "from_occupations": lambda: QuantumState.from_occupations(BASIS, occ),
        "post_select": lambda: post_select(TABLE, [occ]),
        "post_select of evolve_state": lambda: post_select(evolve_state(U, STATE), [occ]),
        "transition_amplitude input": lambda: transition_amplitude(U, occ, REFERENCE),
        "transition_amplitude output": lambda: transition_amplitude(U, REFERENCE, occ),
        "permanent counts": lambda: permanent(np.ones((PHOTONS, MODES)), occ),
    }), typed=np.iterable(occ) and all(map(_is_whole, occ)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(count=_COUNTS)
def test_a_count_is_accepted_everywhere_or_nowhere(count):
    _assert_one_verdict(_outcomes({
        "FockBasis modes": lambda: FockBasis(count, 2),
        "FockBasis photons": lambda: FockBasis(2, count),
        "enumerate_basis modes": lambda: enumerate_basis(count, 2),
        "enumerate_basis photons": lambda: enumerate_basis(2, count),
        "sweep_inputs photons": lambda: sweep_inputs(U2, count),
    }), typed=_is_whole(count))


_BAD_ARRAYS = {
    "string": "abc",
    "ragged": [[1, 2], [3]],
    "ragged rows of numbers and strings": [[1, "x"], [0, 1]],
    "dict": {},
    "None": None,
    "scalar": 5,
    "huge int": [[10 ** 400, 0], [0, 1]],
    "non-finite": np.full((MODES, MODES), math.inf),
    "nan": np.full((MODES, MODES), math.nan),
    "empty": np.zeros((0, 0)),
}

_MATRIX_ENTRY_POINTS = {
    "evolve_state": lambda m: evolve_state(m, STATE),
    "evolve_state_hamiltonian": lambda m: evolve_state_hamiltonian(m, STATE),
    "noon_report": lambda m: noon_report(m, STATE),
    "post_select of evolve_state": lambda m: post_select(evolve_state(m, STATE), [(1, 1, 0)]),
    "sweep_inputs": lambda m: sweep_inputs(m, 2),
    "transition_amplitude": lambda m: transition_amplitude(m, (1, 1, 0), REFERENCE),
    "permanent": permanent,
    "permanent counts": lambda m: permanent(m, (1, 1)),
    "fock_hamiltonian": lambda m: fock_hamiltonian(m, BASIS),
    "evolution_operator": evolution_operator,
    "unitarize": unitarize,
    "unitarity_defect": unitarity_defect,
    "effective_hamiltonian": effective_hamiltonian,
    "matrix_exp": matrix_exp,
    "QuantumState": lambda m: QuantumState(BASIS, m),
}


# transition_amplitude checks only that the matrix is square, so an infinite entry
# reaches numpy, which warns on inf - inf; a nan entry passes through silently.
_UNCHECKED_FINITENESS = pytest.mark.xfail(
    strict=True, raises=RuntimeWarning,
    reason="the square-only entry point computes on infinite entries")
_UNCHECKED = {("transition_amplitude", "non-finite")}


@pytest.mark.parametrize("entry,bad", [
    pytest.param(entry, bad, id=f"{name}-{kind}",
                 marks=[_UNCHECKED_FINITENESS] * ((name, kind) in _UNCHECKED))
    for name, entry in _MATRIX_ENTRY_POINTS.items() for kind, bad in _BAD_ARRAYS.items()])
def test_a_bad_array_returns_or_raises_a_package_error(entry, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            entry(bad)
        except NoonforgeError:
            pass


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("entry", [
    permanent,
    lambda m: permanent(m, (1, 1)),
    lambda m: fock_hamiltonian(m, enumerate_basis(2, 2)),
    evolution_operator,
], ids=["permanent", "permanent counts", "fock_hamiltonian", "evolution_operator"])
def test_one_non_finite_entry_is_a_shape_error(entry, bad):
    with pytest.raises(ShapeError, match="^matrix entries must be finite$"):
        entry(np.array([[1, bad], [0, 1]]))
