"""NOON-state post-selection: success probability, phase alignment, fidelity.

A NOON component is a basis state with all photons bunched in one port. The
ideal target is their equal-magnitude superposition; per-port output phase
shifters can align any phases for free, so the fidelity reduces to the closed
form (sum |c_j|)^2 / (K sum |c_j|^2), which is 1 exactly when the magnitudes
are equal. A report therefore needs only the K bunched output amplitudes;
noon_report and sweep_inputs compute just those.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import ShapeError, SpecError, ZeroProbabilityError
from .evolve import (TransitionTable, require_evolvable, require_permanent_size,
                     transition_amplitude)
from .fock import (FockBasis, FockState, QuantumState, amplitude_rows, enumerate_basis,
                   format_occupations, rank_descending)
from .unitary import require_unitary

ZERO_WEIGHT = 1e-24


@dataclass(frozen=True)
class NoonReport:
    """Post-selection outcome for the K bunched components of an N-photon table."""

    photons: int
    modes: int
    raw_amplitudes: tuple[complex, ...]
    success_probability: float
    optimal_phases_deg: tuple[float, ...]
    normalized_amplitudes: tuple[float, ...]
    fidelity: float

    def to_payload(self) -> dict:
        return {
            "photons": self.photons,
            "modes": self.modes,
            "success_probability": serialize.fixed(self.success_probability, 4),
            "fidelity": serialize.fixed(self.fidelity, 4),
            "components": [
                {**row,
                 "normalized_mag": serialize.fixed(m, 4),
                 "optimal_phase_deg": serialize.fixed(p, 2)}
                for row, m, p in zip(
                    amplitude_rows(map(format_occupations,
                                       _noon_states(self.photons, self.modes)),
                                   self.raw_amplitudes),
                    self.normalized_amplitudes, self.optimal_phases_deg)
            ],
        }


@functools.cache
def _noon_states(photons: int, modes: int) -> tuple[FockState, ...]:
    return tuple(tuple(photons if i == j else 0 for i in range(modes)) for j in range(modes))


def noon_components(basis: FockBasis) -> list[FockState]:
    """The K one-port-bunched states |N e_j> in port order."""
    return list(_noon_states(basis.photons, basis.modes))


def _report_from_amplitudes(raw: np.ndarray, photons: int, modes: int) -> NoonReport:
    if photons < 1:
        raise ShapeError("NOON extraction needs at least one photon")
    magnitudes = np.abs(raw)
    success = float(np.sum(magnitudes ** 2))
    if success <= ZERO_WEIGHT:
        raise ZeroProbabilityError("no probability weight on the bunched components")
    # A shifter on port j multiplies |..n_j..> by exp(i n_j theta_j); the
    # bunched component picks up exp(i N theta_j), so -arg(c_j)/N aligns it.
    phases = tuple(-math.degrees(a) / photons for a in np.angle(raw).tolist())
    normalized = tuple((magnitudes / math.sqrt(success)).tolist())
    fidelity = float(np.sum(magnitudes)) ** 2 / (modes * success)
    return NoonReport(photons, modes, tuple(raw.tolist()), success,
                      phases, normalized, fidelity)


def _bunched_report(u: np.ndarray, terms, photons: int) -> NoonReport:
    """NoonReport of S sum_k coeff_k |occ_k> from its K bunched amplitudes alone.

    `terms` lists the input's nonzero (occupations, coeff) pairs in basis
    order, the order evolve_state sums them in, so the amplitudes match its
    table bit for bit.
    """
    modes = u.shape[0]
    targets = _noon_states(photons, modes)
    raw = np.zeros(modes, dtype=complex)
    for occ_in, coeff in terms:
        for j, target in enumerate(targets):
            raw[j] += coeff * transition_amplitude(u, occ_in, target)
    return _report_from_amplitudes(raw, photons, modes)


def noon_report(matrix, state: QuantumState) -> NoonReport:
    """NOON report of a normalized state sent through a unitary multiport.

    Equal to extract_noon(evolve_state(matrix, state)), but computes only the
    K bunched output amplitudes instead of the full output table.
    """
    u = require_evolvable(matrix, state)
    terms = [(occ, c) for occ, c in zip(state.basis.states, state.amplitudes) if c != 0]
    return _bunched_report(u, terms, state.basis.photons)


def extract_noon(table: TransitionTable) -> NoonReport:
    """Post-select the bunched components and report success, phases, fidelity."""
    raw = np.array([table.amplitude(occ) for occ in noon_components(table.basis)])
    return _report_from_amplitudes(raw, table.basis.photons, table.basis.modes)


def post_select(table: TransitionTable, kept) -> tuple[QuantumState, float]:
    """Project a table onto the kept states and renormalize.

    Returns the renormalized state (canonical global phase) and the kept
    probability weight.
    """
    states = list(dict.fromkeys(tuple(occ) for occ in kept))
    if not states:
        raise SpecError("post-selection must keep at least one state")
    for occ in states:
        if occ not in table.basis:
            raise SpecError(f"selected state {occ} is not in the table's basis")
    indices = [table.basis.index_of(occ) for occ in states]
    probability = float(sum(abs(table.amplitudes[i]) ** 2 for i in indices))
    if probability <= ZERO_WEIGHT:
        raise ZeroProbabilityError("post-selection kept zero probability")
    amps = np.zeros(len(table.basis), dtype=complex)
    amps[indices] = table.amplitudes[indices]
    state = QuantumState(table.basis, amps / math.sqrt(probability)).canonical()
    return state, probability


def _zero_report(photons: int, modes: int) -> NoonReport:
    zeros = (0.0,) * modes
    return NoonReport(photons, modes, (0j,) * modes, 0.0, zeros, zeros, 0.0)


def sweep_inputs(matrix, total_photons: int) -> list[tuple[FockState, NoonReport]]:
    """Rank every n-photon input over the matrix's ports by NOON success probability.

    Each input is scored from its K bunched output amplitudes alone, as
    noon_report does; the reports are identical to running extract_noon on
    the full table. Inputs with no bunched weight get a
    zero-success placeholder (fidelity 0) and rank last. Successes within
    fock.TIE_TOLERANCE of their tied group's largest rank as equal and break
    on the ascending lexicographic order of the input occupations. More
    photons than a permanent takes are refused before any basis is built.
    """
    if total_photons < 1:
        raise ShapeError("sweep needs at least one photon")
    require_permanent_size(total_photons)
    u = require_unitary(matrix)
    modes = u.shape[0]
    rows = []
    for occ in reversed(enumerate_basis(modes, total_photons).states):
        try:
            report = _bunched_report(u, [(occ, 1)], total_photons)
        except ZeroProbabilityError:
            report = _zero_report(total_photons, modes)
        rows.append((occ, report))
    return rank_descending(rows, [report.success_probability for _, report in rows])
