"""Bundled splitter matrices, their golden reference outputs, and the claims.

The two four-port splitter matrices ship as data files transcribed
digit-for-digit from their source; the tables below hold the multiphoton
outputs quoted for them, against which the reproduce command and the
acceptance suite check this implementation. ``reproduction_claims``
evaluates every table as a pass/fail claim. Quoted magnitudes carry the
source's 3-decimal rounding and phases its whole-degree rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InputError, NoonforgeError
from .evolve import evolution_operator, evolve_state
from .fock import QuantumState, enumerate_basis
from .noon import extract_noon, post_select, sweep_inputs
from .unitary import MatrixFile, _wrap_degrees, load_matrix, unitarize, validate_symmetry

SPLITTER_I = "splitter_i"
SPLITTER_II = "splitter_ii"


def data_path(filename: str):
    """Filesystem path of a bundled data file."""
    return resources.files("noonforge").joinpath("data", filename)


def bundled_matrix(name: str) -> MatrixFile:
    """Load one of the bundled splitter matrices ("splitter_i"/"splitter_ii")."""
    if name not in (SPLITTER_I, SPLITTER_II):
        raise KeyError(f"no bundled matrix named {name!r}")
    return load_matrix(data_path(f"{name}.json"))


# ---------------------------------------------------------------------------
# Golden outputs for the subspace-II splitter.
# ---------------------------------------------------------------------------

TWO_PHOTON_INPUT = (0, 0, 1, 1)

# Full two-photon output table: occupations -> (magnitude, phase_deg).
TWO_PHOTON_OUTPUT = {
    (2, 0, 0, 0): (0.339, 48.0),
    (0, 2, 0, 0): (0.333, 15.0),
    (0, 0, 2, 0): (0.342, 149.0),
    (0, 0, 0, 2): (0.350, -136.0),
    (1, 1, 0, 0): (0.470, -148.0),
    (0, 0, 1, 1): (0.499, -167.0),
    (1, 0, 1, 0): (0.143, -124.0),
    (1, 0, 0, 1): (0.085, 77.0),
    (0, 1, 1, 0): (0.089, 14.0),
    (0, 1, 0, 1): (0.143, -97.0),
}

# Components below this magnitude come from nearly cancelling two-term sums,
# where the 2-decimal/1-degree rounding of the splitter entries moves the
# phase by more than the quoted-phase tolerance; phase agreement is therefore
# gated on the dominant components only.
DOMINANT_MAGNITUDE = 0.2

TWO_PHOTON_SUCCESS_RANGE = (0.45, 0.50)
TWO_PHOTON_FIDELITY_MIN = 0.998
TWO_PHOTON_NOON_NORMALIZED = (0.497, 0.488, 0.501, 0.513)

ENTANGLED_SELECTION = ((1, 1, 0, 0), (0, 0, 1, 1))
ENTANGLED_MAGNITUDES = (0.686, 0.728)
ENTANGLED_PROBABILITY_RANGE = (0.44, 0.52)

THREE_PHOTON_INPUT = (0, 1, 1, 1)
THREE_PHOTON_NOON = {
    (3, 0, 0, 0): (0.335, -15.0),
    (0, 3, 0, 0): (0.259, -45.0),
    (0, 0, 3, 0): (0.290, 53.0),
    (0, 0, 0, 3): (0.291, -23.0),
}
THREE_PHOTON_SUCCESS = 0.348
THREE_PHOTON_SUCCESS_TOL = 0.02
THREE_PHOTON_FIDELITY = 0.992
THREE_PHOTON_FIDELITY_TOL = 0.005
THREE_PHOTON_NOON_NORMALIZED = (0.568, 0.439, 0.492, 0.493)

FOUR_PHOTON_INPUT = (1, 1, 1, 1)
FOUR_PHOTON_NOON = {
    (4, 0, 0, 0): (0.295, -42.0),
    (0, 4, 0, 0): (0.296, -109.0),
    (0, 0, 4, 0): (0.279, 144.0),
    (0, 0, 0, 4): (0.291, -67.0),
}
# The source quotes both 33.7% and 34.8% for this preparation; either band
# is accepted and the computed value is always reported.
FOUR_PHOTON_SUCCESS_BANDS = ((0.337, 0.02), (0.348, 0.02))
FOUR_PHOTON_FIDELITY_MIN = 0.995
FOUR_PHOTON_NOON_NORMALIZED = (0.508, 0.510, 0.481, 0.501)

MAGNITUDE_TOL = 0.02
RELATIVE_PHASE_TOL_DEG = 4.0

SYMMETRY_TOL_MAG = 0.02
SYMMETRY_TOL_PHASE_DEG = 2.0
SYMMETRY_MAX_VIOLATIONS = 2
COLUMN_NORM_TOL = 0.1


# ---------------------------------------------------------------------------
# Reproduction claims: the golden tables above checked against this package.
# ---------------------------------------------------------------------------

def operator_from_file(mf: MatrixFile) -> np.ndarray:
    """Unitarize a scattering file and orient it for evolution."""
    return evolution_operator(unitarize(mf.to_array()))


@dataclass(frozen=True)
class Claim:
    name: str
    passed: bool
    computed: str
    expected: str


def _band_claim(name: str, value: float, center: float, half_width: float) -> Claim:
    return Claim(name, abs(value - center) <= half_width, f"{value:.4f}",
                 f"{center:.4f} +- {half_width:.4f}")


def _table_magnitude_claim(name: str, computed: dict, quoted: dict,
                           tol: float) -> Claim:
    worst = max(abs(abs(computed[occ]) - mag) for occ, (mag, _) in quoted.items())
    return Claim(name, worst <= tol, f"worst magnitude deviation {worst:.4f}",
                 f"<= {tol:.4f}")


def _relative_phase_claim(name: str, computed: dict, quoted: dict,
                          tol_deg: float, floor: float) -> Claim:
    dominant = [occ for occ, (mag, _) in quoted.items() if mag >= floor]
    anchor = max(dominant, key=lambda occ: quoted[occ][0])
    offset = math.degrees(np.angle(computed[anchor])) - quoted[anchor][1]
    worst = 0.0
    for occ in dominant:
        dev = math.degrees(np.angle(computed[occ])) - quoted[occ][1] - offset
        worst = max(worst, abs(_wrap_degrees(dev)))
    return Claim(name, worst <= tol_deg,
                 f"worst relative-phase deviation {worst:.2f} deg "
                 f"({len(dominant)} components above magnitude {floor})",
                 f"<= {tol_deg:.2f} deg")


def _vector_claim(name: str, values, quoted, tol: float) -> Claim:
    worst = max(abs(v - q) for v, q in zip(values, quoted))
    return Claim(name, worst <= tol, f"worst deviation {worst:.4f}", f"<= {tol:.4f}")


def _floor_claim(name: str, value: float, floor: float) -> Claim:
    return Claim(name, value >= floor, f"{value:.5f}", f">= {floor:.4f}")


def _guarded(name: str, expected: str, compute, judge) -> list[Claim]:
    """judge(compute()), or one failed claim `name` if compute raises a package error."""
    try:
        result = compute()
    except NoonforgeError as exc:
        return [Claim(name, False, f"error: {exc}", expected)]
    return judge(result)


def _prepared(u: np.ndarray, occ: tuple, quoted: dict, name: str, tol: float):
    """Evolve the quoted input `occ` through `u`: its table, the amplitudes of the
    `quoted` outputs, and the claim `name` on their magnitudes."""
    state = QuantumState.from_occupations(enumerate_basis(len(occ), sum(occ)), occ)
    table = evolve_state(u, state)
    computed = {out: table.amplitude(out) for out in quoted}
    return table, computed, _table_magnitude_claim(name, computed, quoted, tol)


def reproduction_claims(matrix_file: MatrixFile | None = None,
                        tol_scale: float = 1.0) -> list[Claim]:
    """Evaluate every golden claim for the bundled (or substituted) splitter."""
    t = tol_scale
    # Every other band scales t by a smaller factor, or is 1 minus such a product.
    if not (t >= 0 and math.isfinite(t * max(RELATIVE_PHASE_TOL_DEG, SYMMETRY_TOL_PHASE_DEG))):
        raise InputError(f"tol_scale must be non-negative and keep every tolerance "
                         f"band finite, got {t}")
    mag_tol = MAGNITUDE_TOL * t
    mf2 = matrix_file if matrix_file is not None else bundled_matrix(SPLITTER_II)
    mf1 = bundled_matrix(SPLITTER_I)
    u = operator_from_file(mf2)
    table2, computed2, magnitudes2 = _prepared(u, TWO_PHOTON_INPUT, TWO_PHOTON_OUTPUT,
                                               "two-photon output magnitudes", mag_tol)
    table3, _, magnitudes3 = _prepared(u, THREE_PHOTON_INPUT, THREE_PHOTON_NOON,
                                       "three-photon bunched magnitudes", mag_tol)
    table4, _, magnitudes4 = _prepared(u, FOUR_PHOTON_INPUT, FOUR_PHOTON_NOON,
                                       "four-photon bunched magnitudes", mag_tol)
    # No package error: u is evolvable, the 4-photon basis fit the cap, zero weight is caught.
    success = dict((occ, r.success_probability) for occ, r in sweep_inputs(u, 4))
    spread, conc = success[(1, 1, 1, 1)], success[(4, 0, 0, 0)]
    violations = validate_symmetry(
        mf1.to_array(), SYMMETRY_TOL_MAG * t, SYMMETRY_TOL_PHASE_DEG * t)
    m2 = mf2.to_array()
    off_band = sum(abs(float(np.linalg.norm(m2[:, c])) - 1.0) > COLUMN_NORM_TOL * t
                   for c in range(m2.shape[1]))
    two_lo, two_hi = TWO_PHOTON_SUCCESS_RANGE
    pair_lo, pair_hi = ENTANGLED_PROBABILITY_RANGE
    four_bands = " or ".join(f"{c} +- {w * t:.4f}" for c, w in FOUR_PHOTON_SUCCESS_BANDS)

    return [
        magnitudes2,
        _relative_phase_claim("two-photon output relative phases", computed2,
                              TWO_PHOTON_OUTPUT, RELATIVE_PHASE_TOL_DEG * t,
                              DOMINANT_MAGNITUDE),
        *_guarded("two-photon bunched extraction", f"success in [{two_lo}, {two_hi}]",
                  lambda: extract_noon(table2), lambda report: [
            _band_claim("two-photon bunched success probability",
                        report.success_probability,
                        (two_lo + two_hi) / 2, (two_hi - two_lo) / 2 * t),
            _floor_claim("two-photon bunched fidelity", report.fidelity,
                         1 - (1 - TWO_PHOTON_FIDELITY_MIN) * t),
            _vector_claim("two-photon normalized magnitudes",
                          report.normalized_amplitudes, TWO_PHOTON_NOON_NORMALIZED,
                          mag_tol)]),
        *_guarded("same-side pair branch", f"probability in [{pair_lo}, {pair_hi}]",
                  lambda: post_select(table2, ENTANGLED_SELECTION), lambda branch: [
            _band_claim("same-side pair branch probability", branch[1],
                        (pair_lo + pair_hi) / 2, (pair_hi - pair_lo) / 2 * t),
            _vector_claim("same-side pair magnitudes",
                          [abs(branch[0].amplitude(occ)) for occ in ENTANGLED_SELECTION],
                          ENTANGLED_MAGNITUDES, mag_tol)]),
        magnitudes3,
        *_guarded("three-photon bunched extraction", "success 0.348 +- 0.02",
                  lambda: extract_noon(table3), lambda report: [
            _band_claim("three-photon success probability", report.success_probability,
                        THREE_PHOTON_SUCCESS, THREE_PHOTON_SUCCESS_TOL * t),
            _band_claim("three-photon fidelity", report.fidelity,
                        THREE_PHOTON_FIDELITY, THREE_PHOTON_FIDELITY_TOL * t),
            _vector_claim("three-photon normalized magnitudes",
                          report.normalized_amplitudes, THREE_PHOTON_NOON_NORMALIZED,
                          mag_tol)]),
        magnitudes4,
        *_guarded("four-photon bunched extraction", "success 0.337 or 0.348 band",
                  lambda: extract_noon(table4), lambda report: [
            Claim("four-photon success probability",
                  any(abs(report.success_probability - center) <= width * t
                      for center, width in FOUR_PHOTON_SUCCESS_BANDS),
                  f"{report.success_probability:.4f}", four_bands),
            _floor_claim("four-photon fidelity", report.fidelity,
                         1 - (1 - FOUR_PHOTON_FIDELITY_MIN) * t),
            _vector_claim("four-photon normalized magnitudes",
                          report.normalized_amplitudes, FOUR_PHOTON_NOON_NORMALIZED,
                          mag_tol)]),
        Claim("spread input outranks concentrated input", spread > conc,
              f"success {spread:.4f} (spread) vs {conc:.4f} (concentrated)",
              "spread strictly higher"),
        Claim("splitter-I symmetry pattern", len(violations) <= SYMMETRY_MAX_VIOLATIONS,
              f"{len(violations)} violations",
              f"<= {SYMMETRY_MAX_VIOLATIONS} at tolerance "
              f"({SYMMETRY_TOL_MAG * t}, {SYMMETRY_TOL_PHASE_DEG * t} deg)"),
        Claim("splitter-II column norms", not off_band, f"{off_band} columns out of band",
              f"all within {COLUMN_NORM_TOL * t} of 1"),
    ]
