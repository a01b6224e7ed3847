"""Every printed 6-decimal magnitude is the exactly rounded one.

oracles.exact_squared_magnitudes gives |amplitude|^2 as an exact rational for
the doubles of U and of the input, so the printed digit k is right when
((k - 1/2) 1e-6)^2 <= |a|^2 <= ((k + 1/2) 1e-6)^2, decided by integer
comparison. A row within TIE of a rounding boundary is a tie that no double
route can be held to: it is printed by name and not failed.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from noonforge import QuantumState, enumerate_basis, evolve_state, reference
from noonforge.fock import amplitude_rows

from oracles import exact_squared_magnitudes, haar_unitary

TIE = 1e-13
SEED = 4242


def _misrounded(u, state) -> list:
    """The rows of amplitude_rows(evolve_state(u, state)) whose magnitude is not the
    exactly rounded one; rows within TIE of a boundary are printed instead."""
    table = evolve_state(u, state)
    rows = amplitude_rows(table.basis.labels, table.amplitudes)
    wrong = []
    for row, square in zip(rows, exact_squared_magnitudes(u, state), strict=True):
        k = int(row["mag"].replace(".", ""))
        magnitude = math.sqrt(square)
        if min(abs(magnitude - (k - 0.5) * 1e-6), abs(magnitude - (k + 0.5) * 1e-6)) <= TIE:
            print(f"[exact magnitudes] tie at |{row['state']}> from {state.basis!r}: "
                  f"printed {row['mag']}, exact {magnitude!r}")
            continue
        low, high = Fraction(max(2 * k - 1, 0), 2 * 10 ** 6), Fraction(2 * k + 1, 2 * 10 ** 6)
        if not low * low <= square <= high * high:
            wrong.append((row["state"], row["mag"], magnitude))
    return wrong


def test_the_oracle_matches_the_double_route_to_rounding():
    u = haar_unitary(3, np.random.default_rng(SEED))
    basis = enumerate_basis(3, 3)
    amps = np.zeros(len(basis), dtype=complex)
    amps[[basis.index_of((2, 1, 0)), basis.index_of((0, 1, 2))]] = [0.6, 0.8j]
    state = QuantumState(basis, amps)
    exact = np.sqrt(np.array(exact_squared_magnitudes(u, state), dtype=float))
    assert np.max(np.abs(exact - np.abs(evolve_state(u, state).amplitudes))) <= 1e-14
    assert sum(exact ** 2) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name", [reference.SPLITTER_I, reference.SPLITTER_II])
def test_every_input_of_up_to_four_photons_on_a_bundled_splitter(name):
    u = reference.operator_from_file(reference.bundled_matrix(name))
    wrong = []
    for photons in range(1, 5):
        basis = enumerate_basis(4, photons)
        for occ in basis.states:
            wrong += _misrounded(u, QuantumState.from_occupations(basis, occ))
    assert not wrong


def test_four_photons_in_each_port_on_splitter_ii():
    u = reference.operator_from_file(reference.bundled_matrix(reference.SPLITTER_II))
    basis = enumerate_basis(4, 16)
    assert not _misrounded(u, QuantumState.from_occupations(basis, (4, 4, 4, 4)))


@pytest.mark.parametrize("modes", [2, 3, 4, 5])
def test_a_superposition_through_a_haar_unitary(modes):
    """The cyclic shifts of (2, 1, 0, ...), which share prod n_i! = 2, with
    seeded complex weights."""
    rng = np.random.default_rng(SEED + modes)
    u = haar_unitary(modes, rng)
    basis = enumerate_basis(modes, 3)
    pattern = (2, 1) + (0,) * (modes - 2)
    shifts = {pattern[-k:] + pattern[:-k] for k in range(modes)}
    amps = np.zeros(len(basis), dtype=complex)
    for occ in shifts:
        amps[basis.index_of(occ)] = complex(*rng.standard_normal(2))
    state = QuantumState(basis, amps).normalized()
    assert not _misrounded(u, state)
