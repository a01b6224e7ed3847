"""Every printed magnitude and phase is the exactly rounded one.

oracles.exact_coefficients gives each amplitude as a Gaussian integer c times a
positive root, exact for the doubles of U and of the input. So |amplitude|^2 is
an exact rational, and the printed magnitude digit k is right when
((k - 1/2) 10^-d)^2 <= |a|^2 <= ((k + 1/2) 10^-d)^2, decided by integer
comparison. The printed phase p is right when arg c lies within p +- half a
unit of its last place, decided by the signs of sin(arg c - beta) at both
boundaries beta (oracles.sine_past, in `decimal` at 40 digits). Both are
checked for the 6-decimal rows of amplitude_rows and for the text listing's
4-decimal magnitudes and whole-degree phases. A row the negligible or
real-axis rule prints as 0 or 180 is skipped and counted. A row within TIE
(magnitudes) or PHASE_TIE degrees (phases) of a rounding boundary is a tie
that no double route can be held to: it is printed by name and not failed.
"""

import math
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from noonforge import QuantumState, enumerate_basis, evolve_state, reference
from noonforge.fock import NEGLIGIBLE_AMPLITUDE, amplitude_lines, amplitude_rows

from oracles import (exact_coefficients, exact_squared_magnitudes, fourier_unitary, haar_unitary,
                     sine_past)

TIE = 1e-13
PHASE_TIE = 1e-15
SEED = 4242
# the sine of PHASE_TIE degrees, against which sine_past is compared
_PHASE_TIE_SINE = Decimal(PHASE_TIE) * Decimal(math.pi) / 180
# half a unit in the last printed place of each phase: amplitude_rows's 6 decimals, the
# text listing's whole degrees
_HALF_UNIT = {"phase_deg": Decimal("5e-7"), "listed deg": Decimal("0.5")}
_LISTING_ROW = re.compile(r"  (\d+\.\d{4}) @ +([+-]\d+) deg  \|([\d,]+)>")


def _magnitude_misrounded(label, printed: str, square: Fraction, places: int) -> bool:
    """Whether `printed`, |a| to `places` decimals, is not the exactly rounded |a|;
    a tie is printed and passes."""
    k, unit = int(printed.replace(".", "")), 10 ** places
    magnitude = math.sqrt(square)
    if min(abs(magnitude - (k - 0.5) / unit), abs(magnitude - (k + 0.5) / unit)) <= TIE:
        print(f"[exact magnitudes] tie at |{label}>: printed {printed}, exact {magnitude!r}")
        return False
    low, high = Fraction(max(2 * k - 1, 0), 2 * unit), Fraction(2 * k + 1, 2 * unit)
    return not low * low <= square <= high * high


def _phase_misrounded(kind: str, label, printed: str, coefficient, amplitude: complex,
                      counts: Counter) -> bool:
    """Whether `printed`, the phase of `amplitude` in degrees as `kind` prints it, is not
    the exactly rounded phase of `coefficient`. Skipped where the negligible or
    real-axis rule prints it; a tie is printed and passes. Each verdict is counted."""
    half = _HALF_UNIT[kind]
    magnitude, noise = abs(amplitude), NEGLIGIBLE_AMPLITUDE * abs(amplitude)
    if magnitude <= NEGLIGIBLE_AMPLITUDE or abs(amplitude.imag) <= noise:
        counts[kind, "by rule"] += 1
        return False
    low, high = (sine_past(coefficient, Decimal(printed) + d) for d in (-half, half))
    if min(abs(low), abs(high)) <= _PHASE_TIE_SINE:
        print(f"[exact phases] tie at |{label}>: printed {printed}, exact {coefficient}")
        counts[kind, "ties"] += 1
        return False
    counts[kind, "decided"] += 1
    return not low > 0 > high


def _misrounded(u, state, counts: Counter) -> list:
    """The rows of amplitude_rows(evolve_state(u, state)), and of its text listing, whose
    printed magnitude or phase is not the exactly rounded one."""
    table = evolve_state(u, state)
    coefficients, _ = exact_coefficients(u, state)
    squares = exact_squared_magnitudes(u, state)
    amplitudes = table.amplitudes.tolist()
    wrong = []
    rows = amplitude_rows(table.basis.labels, table.amplitudes)
    for i, row in enumerate(rows):
        if _magnitude_misrounded(row["state"], row["mag"], squares[i], 6):
            wrong.append(("mag", row["state"], row["mag"], math.sqrt(squares[i])))
        if _phase_misrounded("phase_deg", row["state"], row["phase_deg"], coefficients[i],
                             amplitudes[i], counts):
            wrong.append(("phase_deg", row["state"], row["phase_deg"], coefficients[i]))
    position = {label: i for i, label in enumerate(table.basis.labels)}
    lines = amplitude_lines(table.sorted_components()).splitlines()
    assert len(lines) == len(rows)
    for line in lines:
        mag, deg, label = _LISTING_ROW.fullmatch(line).groups()
        i = position[label]
        if _magnitude_misrounded(label, mag, squares[i], 4):
            wrong.append(("listed mag", label, mag, math.sqrt(squares[i])))
        if _phase_misrounded("listed deg", label, deg, coefficients[i], amplitudes[i], counts):
            wrong.append(("listed deg", label, deg, coefficients[i]))
    return wrong


def _report(counts: Counter) -> None:
    for kind in _HALF_UNIT:
        print(f"[exact phases] {kind}: {counts[kind, 'decided']} decided, "
              f"{counts[kind, 'by rule']} printed 0 or 180 by rule, {counts[kind, 'ties']} ties")
        assert counts[kind, "decided"]


def test_the_oracle_matches_the_double_route_to_rounding():
    u = haar_unitary(3, np.random.default_rng(SEED))
    basis = enumerate_basis(3, 3)
    amps = np.zeros(len(basis), dtype=complex)
    amps[[basis.index_of((2, 1, 0)), basis.index_of((0, 1, 2))]] = [0.6, 0.8j]
    state = QuantumState(basis, amps)
    exact = np.sqrt(np.array(exact_squared_magnitudes(u, state), dtype=float))
    table = evolve_state(u, state)
    assert np.max(np.abs(exact - np.abs(table.amplitudes))) <= 1e-14
    assert sum(exact ** 2) == pytest.approx(1.0, abs=1e-14)
    coefficients, _ = exact_coefficients(u, state)
    phases = np.angle([complex(re, im) for re, im in coefficients])
    assert np.max(np.abs(np.exp(1j * phases) * exact - table.amplitudes)) <= 1e-14


@pytest.mark.parametrize("name", [reference.SPLITTER_I, reference.SPLITTER_II])
def test_every_input_of_up_to_four_photons_on_a_bundled_splitter(name):
    u = reference.operator_from_file(reference.bundled_matrix(name))
    wrong, counts = [], Counter()
    for photons in range(1, 5):
        basis = enumerate_basis(4, photons)
        for occ in basis.states:
            wrong += _misrounded(u, QuantumState.from_occupations(basis, occ), counts)
    _report(counts)
    assert not wrong


def test_four_photons_in_each_port_on_splitter_ii():
    u = reference.operator_from_file(reference.bundled_matrix(reference.SPLITTER_II))
    basis = enumerate_basis(4, 16)
    counts = Counter()
    assert not _misrounded(u, QuantumState.from_occupations(basis, (4, 4, 4, 4)), counts)
    _report(counts)


@pytest.mark.parametrize("modes", [2, 3, 4, 5, 6])
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
    counts = Counter()
    assert not _misrounded(u, state, counts)
    _report(counts)


def test_rows_the_printing_rules_decide_are_skipped():
    """Through the 4-port Fourier matrix, 25 of the 35 outputs of 1,1,1,1 are rounding
    noise (Tichy et al., PRL 104, 220405, 2010), which the negligible rule prints at
    phase 0, and the other 10 lie on the real axis to rounding, which prints 0 or 180."""
    counts = Counter()
    state = QuantumState.from_occupations(enumerate_basis(4, 4), (1, 1, 1, 1))
    assert not _misrounded(fourier_unitary(4), state, counts)
    assert counts == {("phase_deg", "by rule"): 35, ("listed deg", "by rule"): 35}
