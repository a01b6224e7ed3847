"""NOON-state post-selection: success probability, phase alignment, fidelity.

A NOON component is a basis state with all photons bunched in one port. The
ideal target is their equal-magnitude superposition; per-port output phase
shifters can align any phases for free, so the fidelity reduces to the closed
form (sum |c_j|)^2 / (K sum |c_j|^2), which is 1 exactly when the magnitudes
are equal. A report therefore needs only the K bunched output amplitudes. One
scorer turns a matrix of them, a row per input, into reports in one array pass:
sweep_inputs scores every input at once, noon_report and extract_noon one row.
noon_report has evolve's one loop over a state's terms sum only the K bunched
output amplitudes; each sweep input is a single ket, so sweep_inputs calls
transition_amplitude once per bunched output. Any other post-selection reads
an evolved table through post_select.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import ShapeError, SpecError, ZeroProbabilityError
from .evolve import (TransitionTable, _output_amplitudes, require_evolvable,
                     require_permanent_size, transition_amplitude)
from .fock import (NEGLIGIBLE_AMPLITUDE, FockBasis, FockState, QuantumState, _whole,
                   amplitude_rows, enumerate_basis, format_occupations, phases_deg,
                   rank_descending)
from .unitary import require_unitary


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
        success, fidelity = serialize.fixed_column((self.success_probability, self.fidelity), 4)
        return {
            "photons": self.photons,
            "modes": self.modes,
            "success_probability": success,
            "fidelity": fidelity,
            "components": [
                {**row, "normalized_mag": m, "optimal_phase_deg": p}
                for row, m, p in zip(
                    amplitude_rows(map(format_occupations,
                                       _noon_states(self.photons, self.modes)),
                                   self.raw_amplitudes),
                    serialize.fixed_column(self.normalized_amplitudes, 4),
                    serialize.fixed_column(self.optimal_phases_deg, 2))
            ],
        }


@functools.cache
def _noon_states(photons: int, modes: int) -> tuple[FockState, ...]:
    return tuple(tuple(photons if i == j else 0 for i in range(modes)) for j in range(modes))


def noon_components(basis: FockBasis) -> list[FockState]:
    """The K one-port-bunched states |N e_j> in port order."""
    return list(_noon_states(basis.photons, basis.modes))


def _score(raw: np.ndarray, photons: int) -> list[NoonReport]:
    """One NoonReport per row of bunched amplitudes, every row in one array pass; a row of
    at most NEGLIGIBLE_AMPLITUDE ** 2 bunched probability gets the zero-success placeholder."""
    if photons < 1:
        raise ShapeError("NOON extraction needs at least one photon")
    modes = raw.shape[1]
    magnitudes = np.abs(raw)
    success = (magnitudes ** 2).sum(axis=1)
    weighted = success > NEGLIGIBLE_AMPLITUDE ** 2
    divisor = np.where(weighted, success, 1.0)
    # A shifter on port j multiplies |..n_j..> by exp(i n_j theta_j); the
    # bunched component picks up exp(i N theta_j), so -arg(c_j)/N aligns it.
    phases = -phases_deg(raw, magnitudes) / photons
    normalized = magnitudes / np.sqrt(divisor)[:, np.newaxis]
    fidelity = np.square(magnitudes.sum(axis=1)) / (modes * divisor)
    zero = (0.0,) * modes
    columns = raw.tolist(), success.tolist(), phases.tolist(), normalized.tolist()
    return [NoonReport(photons, modes, tuple(c), s, tuple(p), tuple(m), f) if w
            else NoonReport(photons, modes, (0j,) * modes, 0.0, zero, zero, 0.0)
            for w, c, s, p, m, f in zip(weighted.tolist(), *columns, fidelity.tolist())]


def _single_report(raw: np.ndarray, photons: int) -> NoonReport:
    (report,) = _score(raw, photons)
    if report.success_probability == 0.0:  # the placeholder: no bunched weight
        raise ZeroProbabilityError("no probability weight on the bunched components")
    return report


def noon_report(matrix, state: QuantumState) -> NoonReport:
    """NOON report of a normalized state sent through a unitary multiport.

    Equal to extract_noon(evolve_state(matrix, state)), but computes only the
    K bunched output amplitudes instead of the full output table.
    """
    u = require_evolvable(matrix, state)
    photons = state.basis.photons
    raw = _output_amplitudes(u, state, _noon_states(photons, u.shape[0]))
    return _single_report(raw[None], photons)


def extract_noon(table: TransitionTable) -> NoonReport:
    """Post-select the bunched components and report success, phases, fidelity."""
    raw = np.array([[table.amplitude(occ) for occ in noon_components(table.basis)]])
    return _single_report(raw, table.basis.photons)


def post_select(table: QuantumState, kept) -> tuple[QuantumState, float]:
    """Project a table onto the kept states and renormalize.

    Returns the renormalized state (canonical global phase) and the kept
    probability weight. Only the kept amplitudes of `table` are read, and each
    distinct kept state is ranked once. ShapeError unless `kept` is a sequence of
    whole states (fock._whole); SpecError if it holds none or one is not in the
    table's basis; ZeroProbabilityError if the kept weight is negligible.
    """
    if not np.iterable(kept):
        raise ShapeError(f"kept states must be a sequence of occupations, got {kept!r}")
    states = list(dict.fromkeys(_whole(occ, "kept occupations") for occ in kept))
    if not states:
        raise SpecError("post-selection must keep at least one state")
    basis = table.basis
    try:
        indices = [basis.index_of(occ) for occ in states]
    except KeyError as exc:
        raise SpecError(f"selected state {exc.args[0]} is not in the table's basis") from None
    amplitudes = table.amplitudes[indices]
    probability = float(sum(abs(amp) ** 2 for amp in amplitudes))
    if probability <= NEGLIGIBLE_AMPLITUDE ** 2:
        raise ZeroProbabilityError("post-selection kept zero probability")
    amps = np.zeros(len(basis), dtype=complex)
    amps[indices] = amplitudes
    return QuantumState(basis, amps / math.sqrt(probability)).canonical(), probability


def sweep_inputs(matrix, total_photons: int) -> list[tuple[FockState, NoonReport]]:
    """Rank every n-photon input over the matrix's ports by NOON success probability.

    Every input's K bunched output amplitudes are scored in one array pass, each
    report equal to noon_report's for that input. Inputs with no bunched weight
    get a zero-success placeholder (fidelity 0) and rank last. Successes within
    fock.NEGLIGIBLE_AMPLITUDE of their tied group's largest rank as equal and break
    on the ascending lexicographic order of the input occupations. A count that
    is not an integer, or more photons than a permanent takes, is refused
    before any basis is built.
    """
    (total_photons,) = _whole((total_photons,), "sweep photon counts")
    if total_photons < 1:
        raise ShapeError("sweep needs at least one photon")
    require_permanent_size(total_photons)
    u = require_unitary(matrix)
    inputs = enumerate_basis(u.shape[0], total_photons).states[::-1]
    targets = _noon_states(total_photons, u.shape[0])
    raw = np.array([[transition_amplitude(u, occ, t) for t in targets] for occ in inputs])
    reports = _score(raw, total_photons)
    return rank_descending(list(zip(inputs, reports)), [r.success_probability for r in reports])
