"""Acceptance suite: one test per golden criterion, tolerances pinned here.

Expected values are frozen in this file rather than imported from the
package, so the suite cannot drift along with the code it checks.
"""

import math
import time

import numpy as np

from noonforge import (
    QuantumState,
    effective_hamiltonian,
    enumerate_basis,
    evolve_state,
    evolve_state_hamiltonian,
    extract_noon,
    matrix_exp,
    permanent,
    post_select,
    reference,
    state_from_spec,
    sweep_inputs,
    unitarity_defect,
    unitarize,
    validate_symmetry,
)

from oracles import haar_unitary, naive_permanent, random_fock_input

SEED = 20260401

# Quoted two-photon output for input |0,0,1,1>: occupations -> (mag, phase_deg).
QUOTED_PAIR_OUTPUT = {
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

# Quoted bunched outputs for |0,1,1,1> and |1,1,1,1>: occupations -> (mag, phase_deg).
QUOTED_TRIPLE_NOON = {
    (3, 0, 0, 0): (0.335, -15.0),
    (0, 3, 0, 0): (0.259, -45.0),
    (0, 0, 3, 0): (0.290, 53.0),
    (0, 0, 0, 3): (0.291, -23.0),
}
QUOTED_QUAD_NOON = {
    (4, 0, 0, 0): (0.295, -42.0),
    (0, 4, 0, 0): (0.296, -109.0),
    (0, 0, 4, 0): (0.279, 144.0),
    (0, 0, 0, 4): (0.291, -67.0),
}

QUOTED_PAIR_NOON_NORMALIZED = (0.497, 0.488, 0.501, 0.513)
QUOTED_ENTANGLED_MAGNITUDES = (0.686, 0.728)
QUOTED_TRIPLE_NOON_NORMALIZED = (0.568, 0.439, 0.492, 0.493)
QUOTED_QUAD_NOON_NORMALIZED = (0.508, 0.510, 0.481, 0.501)

MAG_TOL = 0.02
PHASE_TOL_DEG = 4.0


def bunched(port, photons, modes=4):
    occ = [0] * modes
    occ[port] = photons
    return tuple(occ)


def evolve_ket(u, spec):
    _, state = state_from_spec(spec)
    return evolve_state(u, state)


def report_line(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


def test_criterion_1_two_photon_output_table(operator_ii):
    start = time.monotonic()
    table = evolve_ket(operator_ii, "0,0,1,1")
    elapsed = time.monotonic() - start

    worst_mag = 0.0
    for occ, (mag, _) in QUOTED_PAIR_OUTPUT.items():
        dev = abs(abs(table.amplitude(occ)) - mag)
        worst_mag = max(worst_mag, dev)
        assert dev <= MAG_TOL, f"{occ}: magnitude off by {dev:.4f}"

    # Relative phases are gated on the components whose quoted magnitude
    # exceeds 0.2: below that the output is a nearly cancelling two-term sum,
    # where the 2-decimal/whole-degree rounding of the stored matrix moves
    # the phase by more than the band itself.
    dominant = [occ for occ, (mag, _) in QUOTED_PAIR_OUTPUT.items() if mag > 0.2]
    assert len(dominant) == 6
    anchor = max(dominant, key=lambda occ: QUOTED_PAIR_OUTPUT[occ][0])
    offset = (np.angle(table.amplitude(anchor), deg=True)
              - QUOTED_PAIR_OUTPUT[anchor][1])
    worst_phase = 0.0
    for occ in dominant:
        dev = (np.angle(table.amplitude(occ), deg=True)
               - QUOTED_PAIR_OUTPUT[occ][1] - offset)
        dev = abs((dev + 180.0) % 360.0 - 180.0)
        worst_phase = max(worst_phase, dev)
        assert dev <= PHASE_TOL_DEG, f"{occ}: relative phase off by {dev:.2f} deg"

    assert elapsed < 1.0
    report_line("criterion 1 (two-photon output table)",
                f"worst mag dev {worst_mag:.4f}, worst relative phase "
                f"{worst_phase:.2f} deg, {elapsed:.3f}s")


def test_criterion_2_two_photon_noon(operator_ii):
    report = extract_noon(evolve_ket(operator_ii, "0,0,1,1"))
    assert 0.45 <= report.success_probability <= 0.50
    assert report.fidelity >= 0.998
    for got, quoted in zip(report.normalized_amplitudes, QUOTED_PAIR_NOON_NORMALIZED):
        assert abs(got - quoted) <= MAG_TOL
    report_line("criterion 2 (two-photon NOON)",
                f"success {report.success_probability:.4f}, "
                f"fidelity {report.fidelity:.5f}")


def test_criterion_3_path_entangled_branch(operator_ii):
    table = evolve_ket(operator_ii, "0,0,1,1")
    selection = [(1, 1, 0, 0), (0, 0, 1, 1)]
    state, probability = post_select(table, selection)
    assert 0.44 <= probability <= 0.52
    for occ, quoted in zip(selection, QUOTED_ENTANGLED_MAGNITUDES):
        assert abs(abs(state.amplitude(occ)) - quoted) <= MAG_TOL
    report_line("criterion 3 (path-entangled branch)",
                f"branch probability {probability:.4f}")


def test_criterion_4_three_photon_noon(operator_ii):
    report = extract_noon(evolve_ket(operator_ii, "0,1,1,1"))
    assert abs(report.success_probability - 0.348) <= 0.02
    assert abs(report.fidelity - 0.992) <= 0.005
    for got, quoted in zip(report.normalized_amplitudes, QUOTED_TRIPLE_NOON_NORMALIZED):
        assert abs(got - quoted) <= MAG_TOL
    report_line("criterion 4 (three-photon NOON)",
                f"success {report.success_probability:.4f}, "
                f"fidelity {report.fidelity:.5f}")


def test_criterion_5_four_photon_noon(operator_ii):
    report = extract_noon(evolve_ket(operator_ii, "1,1,1,1"))
    in_either_band = (abs(report.success_probability - 0.337) <= 0.02
                      or abs(report.success_probability - 0.348) <= 0.02)
    assert in_either_band, f"success {report.success_probability:.4f}"
    assert report.fidelity >= 0.995
    for got, quoted in zip(report.normalized_amplitudes, QUOTED_QUAD_NOON_NORMALIZED):
        assert abs(got - quoted) <= MAG_TOL
    report_line("criterion 5 (four-photon NOON)",
                f"success {report.success_probability:.4f}, "
                f"fidelity {report.fidelity:.5f}")


def test_criteria_4_and_5_bunched_relative_phases(operator_ii):
    """The eight quoted three- and four-photon bunched phases, relative to the
    largest component, by the claim the two-photon table uses and its 4-degree band."""
    assert reference.RELATIVE_PHASE_TOL_DEG == PHASE_TOL_DEG
    details = []
    for name, spec, quoted, stored in [
            ("three-photon", "0,1,1,1", QUOTED_TRIPLE_NOON, reference.THREE_PHOTON_NOON),
            ("four-photon", "1,1,1,1", QUOTED_QUAD_NOON, reference.FOUR_PHOTON_NOON)]:
        assert stored == quoted
        table = evolve_ket(operator_ii, spec)
        computed = {occ: table.amplitude(occ) for occ in quoted}
        claim = reference._relative_phase_claim(
            f"{name} bunched relative phases", computed, stored,
            reference.RELATIVE_PHASE_TOL_DEG, reference.DOMINANT_MAGNITUDE)
        assert claim.passed, claim
        assert "(4 components above" in claim.computed, claim
        details.append(f"{name} {claim.computed.split(' (')[0]}")
    report_line("criteria 4 and 5 (bunched relative phases)", "; ".join(details))


def test_criterion_6_spread_inputs_outrank_concentrated(operator_ii):
    rows = dict(sweep_inputs(operator_ii, 4))
    spread = rows[(1, 1, 1, 1)].success_probability
    concentrated = rows[(4, 0, 0, 0)].success_probability
    assert spread > concentrated
    report_line("criterion 6 (input-distribution ranking)",
                f"{spread:.4f} (spread) > {concentrated:.4f} (concentrated)")


def test_criterion_7a_permanent_against_oracle():
    rng = np.random.default_rng(SEED)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        reference_value = naive_permanent(m)
        error = abs(permanent(m) - reference_value)
        assert error <= 1e-10 * max(1.0, abs(reference_value))
    report_line("criterion 7a (permanent vs permutation-sum oracle)",
                "200 matrices, n <= 6, rel err <= 1e-10")


def test_criterion_7b_norm_conservation():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for trial in range(100):
        u = haar_unitary(4, rng)
        photons = int(rng.integers(1, 5))
        occ = random_fock_input(4, photons, rng)
        basis = enumerate_basis(4, photons)
        table = evolve_state(u, QuantumState.from_occupations(basis, occ))
        worst = max(worst, abs(table.norm() - 1.0))
    assert worst <= 1e-9
    report_line("criterion 7b (norm conservation)",
                f"100 random unitaries/inputs, worst {worst:.2e}")


def test_criterion_7c_permanent_vs_hamiltonian_evolution():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for trial in range(50):
        u = haar_unitary(4, rng)
        generator = effective_hamiltonian(u)
        photons = int(rng.integers(1, 5))
        occ = random_fock_input(4, photons, rng)
        basis = enumerate_basis(4, photons)
        state = QuantumState.from_occupations(basis, occ)
        by_permanent = evolve_state(u, state)
        by_hamiltonian = evolve_state_hamiltonian(generator, state)
        worst = max(worst, float(np.max(np.abs(
            by_permanent.amplitudes - by_hamiltonian.amplitudes))))
    assert worst <= 1e-8
    report_line("criterion 7c (permanent vs Hamiltonian evolution)",
                f"50 random unitaries, n <= 4, worst {worst:.2e}")


def test_criterion_7d_unitarize_and_log_exp_roundtrips(splitter_ii):
    rng = np.random.default_rng(SEED + 3)
    near_unitaries = [splitter_ii] + [
        haar_unitary(4, rng) + 0.02 * (rng.standard_normal((4, 4))
                                       + 1j * rng.standard_normal((4, 4)))
        for _ in range(20)
    ]
    for m in near_unitaries:
        u = unitarize(m)
        assert unitarity_defect(u) <= 1e-10
        assert np.max(np.abs(unitarize(u) - u)) <= 1e-12
        assert np.max(np.abs(matrix_exp(effective_hamiltonian(u)) - u)) <= 1e-9
    report_line("criterion 7d (unitarize idempotence, log/exp round-trip)",
                "21 near-unitary matrices")


def test_criterion_7e_hom_exact(symmetric_splitter):
    table = evolve_ket(symmetric_splitter, "1,1")
    out = table.canonical()
    expected = np.zeros(3, dtype=complex)
    expected[out.basis.index_of((2, 0))] = 1 / math.sqrt(2)
    expected[out.basis.index_of((0, 2))] = 1 / math.sqrt(2)
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12
    report_line("criterion 7e (Hong-Ou-Mandel)",
                "|1,1> -> (|2,0>+|0,2>)/sqrt(2) exactly")


def test_criterion_8_symmetry_validation(splitter_i, splitter_ii):
    violations = validate_symmetry(splitter_i, 0.02, 2.0)
    assert len(violations) <= 2
    column_claims = [c for c in reference.reproduction_claims()
                     if c.name == "splitter-II column norms"]
    assert [c.passed for c in column_claims] == [True]
    for c in range(4):
        assert abs(np.linalg.norm(splitter_ii[:, c]) - 1.0) <= 0.1
    report_line("criterion 8 (symmetry validation)",
                f"{len(violations)} pattern violations, all column norms in band")
