import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from noonforge import (
    BranchCutError,
    CapacityError,
    InputError,
    MatrixFile,
    MatrixFileError,
    NotHermitianError,
    NotUnitaryError,
    PolarEntry,
    QuantumState,
    ShapeError,
    SingularMatrixError,
    effective_hamiltonian,
    enumerate_basis,
    evolve_state,
    evolve_state_hamiltonian,
    matrix_exp,
    noon_report,
    reference,
    state_from_spec,
    sweep_inputs,
    unitarity_defect,
    unitarize,
    validate_symmetry,
)
from noonforge.cli import main
from noonforge.unitary import (dumps_matrix, load_matrix, loads_matrix, max_unitarity_defect,
                               require_hermitian, require_square, require_unitary)

from oracles import haar_unitary, schur_generator

RNG_SEED = 20260811


def polar(mag, deg):
    return mag * np.exp(1j * np.deg2rad(deg))


# --- polar entries ----------------------------------------------------------

def test_to_array_identity():
    entries = tuple(PolarEntry(mag, 0) for mag in (1, 0, 0, 1))
    assert np.allclose(MatrixFile(2, "identity", entries).to_array(), np.eye(2))


def test_polar_entry_matches_complex_arithmetic():
    entries = tuple(PolarEntry(mag, deg)
                    for mag, deg in ((0.57, -74), (0.45, -51), (0.44, -27), (0.50, -44)))
    assert entries[0].value == pytest.approx(
        0.57 * (math.cos(math.radians(-74)) + 1j * math.sin(math.radians(-74))))
    # entries are row-major: the third one is row 1, column 0
    m = MatrixFile(2, "x", entries).to_array()
    assert m[1, 0] == pytest.approx(0.44 * np.exp(-1j * 27 * np.pi / 180))


@pytest.mark.parametrize("magnitude, phase", [(Decimal("-0.5"), Decimal("0")),
                                              (Decimal("Infinity"), 0),
                                              (1, Decimal("NaN"))], ids=repr)
def test_polar_entry_rejects_negative_or_non_finite_values(magnitude, phase):
    with pytest.raises(MatrixFileError):
        PolarEntry(magnitude, phase)


@pytest.mark.parametrize("bad", ["abc", [[1, 2], [3]], [[1, {}], [0, 1]], [[10 ** 400]]],
                         ids=["string", "ragged", "dict-entry", "huge-int"])
def test_arrays_numpy_cannot_read_are_shape_errors(bad):
    with pytest.raises(ShapeError, match="expected an array of numbers"):
        require_square(bad)
    with pytest.raises(ShapeError, match="expected an array of numbers"):
        require_unitary(bad)
    with pytest.raises(ShapeError, match="expected an array of numbers"):
        evolve_state(bad, state_from_spec("1,1")[1])


# --- unitarity_defect -------------------------------------------------------

def test_defect_identity_is_zero():
    assert unitarity_defect(np.eye(4)) == 0.0


def test_defect_scaled_identity():
    # M = 2I gives M^H M - I = 3I, Frobenius norm 3*sqrt(dim)
    assert unitarity_defect(2 * np.eye(4)) == pytest.approx(6.0)


def test_defect_splitter_ii_band(splitter_ii):
    defect = unitarity_defect(splitter_ii)
    assert 0.0 < defect < 0.15
    # independent evaluation: sum of squared Gram-matrix deviations
    gram = splitter_ii.conj().T @ splitter_ii
    direct = math.sqrt(sum(
        abs(gram[i, j] - (1.0 if i == j else 0.0)) ** 2
        for i in range(4) for j in range(4)))
    assert defect == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("scale", [1e80, 1e155], ids=["norm-overflows", "gram-overflows"])
def test_a_defect_that_overflows_is_refused_without_a_warning(operator_ii, scale):
    # At 1e80 only the Frobenius norm's squares overflow; at 1e155 M^H M does too.
    with pytest.raises(NotUnitaryError, match=r"^matrix is not unitary \(its unitarity "
                       r"defect overflows\)$"):
        unitarity_defect(operator_ii * scale)
    if scale > 1e100:
        for check in (max_unitarity_defect, require_unitary,
                      lambda m: evolve_state(m, state_from_spec("1,1,0,0")[1])):
            with pytest.raises(NotUnitaryError, match="defect overflows"):
                check(operator_ii * scale)


# --- unitarize --------------------------------------------------------------

def test_unitarize_fixed_point():
    rng = np.random.default_rng(RNG_SEED)
    u = haar_unitary(4, rng)
    assert np.max(np.abs(unitarize(u) - u)) < 1e-12


def test_unitarize_positive_scaling_collapses():
    assert np.allclose(unitarize(0.5 * np.eye(3)), np.eye(3), atol=1e-14)


def test_unitarize_splitter_ii(splitter_ii):
    u = unitarize(splitter_ii)
    assert unitarity_defect(u) <= 1e-10
    assert np.max(np.abs(u - splitter_ii)) < 0.03


def test_unitarize_idempotent(splitter_ii, splitter_i):
    for m in (splitter_ii, splitter_i):
        once = unitarize(m)
        assert np.max(np.abs(unitarize(once) - once)) < 1e-12


def test_unitarize_is_nearest_unitary(splitter_ii):
    rng = np.random.default_rng(RNG_SEED)
    best = np.linalg.norm(unitarize(splitter_ii) - splitter_ii)
    for _ in range(100):
        other = haar_unitary(4, rng)
        assert best <= np.linalg.norm(other - splitter_ii) + 1e-12


def test_unitarize_singular_raises():
    m = np.zeros((3, 3), dtype=complex)
    with pytest.raises(SingularMatrixError):
        unitarize(m)
    m = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(SingularMatrixError):
        unitarize(m)


# --- validate_symmetry ------------------------------------------------------

def stamp_pattern(row0, row2):
    """Build a 4x4 matrix satisfying the shared-process equality pattern."""
    r0 = list(row0)
    r2 = list(row2)
    r1 = [r0[1], r0[0], r0[3], r0[2]]
    r3 = [r2[1], r2[0], r2[3], r2[2]]
    return np.array([r0, r1, r2, r3], dtype=complex)


def test_splitter_i_matches_pattern(splitter_i):
    violations = validate_symmetry(splitter_i, 0.02, 2.0)
    assert len(violations) <= 2


@settings(max_examples=50, deadline=None)
@given(
    mags=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
    degs=st.lists(st.floats(-180.0, 180.0), min_size=8, max_size=8),
    tol=st.floats(1e-9, 1.0),
)
def test_stamped_pattern_has_zero_violations(mags, degs, tol):
    row0 = [polar(m, d) for m, d in zip(mags[:4], degs[:4])]
    row2 = [polar(m, d) for m, d in zip(mags[4:], degs[4:])]
    m = stamp_pattern(row0, row2)
    assert validate_symmetry(m, tol, tol) == []


def test_broken_pair_is_reported(splitter_i):
    m = splitter_i.copy()
    m[1, 1] *= np.exp(1j * np.deg2rad(5.0))
    assert validate_symmetry(m, 0.02, 2.0) == [((0, 0), (1, 1))]


def column_norm_claim(matrix_file=None):
    return next(c for c in reference.reproduction_claims(matrix_file)
                if c.name == "splitter-II column norms")


def test_splitter_ii_column_norms(splitter_ii):
    claim = column_norm_claim()
    assert claim.passed
    assert claim.computed == "0 columns out of band"
    # direct column-norm evaluation stays inside the band
    for c in range(4):
        assert abs(np.linalg.norm(splitter_ii[:, c]) - 1.0) < 0.1


def test_column_norm_violation_detected():
    m = np.eye(4, dtype=complex)
    m[:, 2] *= 1.5
    claim = column_norm_claim(MatrixFile.from_array(m, "x"))
    assert not claim.passed
    assert claim.computed == "1 columns out of band"


def test_validate_symmetry_needs_4x4():
    with pytest.raises(ShapeError):
        validate_symmetry(np.eye(3), 0.1, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_validate_symmetry_rejects_bad_tolerance(splitter_i, bad):
    with pytest.raises(InputError):
        validate_symmetry(splitter_i, bad, 2.0)
    with pytest.raises(InputError):
        validate_symmetry(splitter_i, 0.02, bad)


# --- effective_hamiltonian / matrix_exp -------------------------------------

def test_generator_of_identity_is_zero():
    a = effective_hamiltonian(np.eye(4))
    assert np.max(np.abs(a)) < 1e-12


def test_generator_of_diagonal_phase():
    for theta in (-2.5, -0.3, 0.7, 3.0):
        u = np.diag([np.exp(1j * theta), 1.0])
        a = effective_hamiltonian(u)
        assert np.allclose(a, np.diag([-theta, 0.0]), atol=1e-12)


def test_generator_requires_unitary(splitter_ii):
    with pytest.raises(NotUnitaryError):
        effective_hamiltonian(splitter_ii)


def test_generator_branch_cut():
    with pytest.raises(BranchCutError):
        effective_hamiltonian(np.diag([-1.0, 1.0]).astype(complex))


def test_matrix_exp_zero_is_identity():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_matrix_exp_diagonal():
    u = matrix_exp(np.diag([np.pi, 0.0]))
    assert np.allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)


def test_matrix_exp_requires_hermitian():
    with pytest.raises(NotHermitianError):
        matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("entry", [
    matrix_exp,
    lambda a: evolve_state_hamiltonian(
        a, QuantumState.from_occupations(enumerate_basis(2, 2), (1, 1))),
], ids=["matrix_exp", "evolve_state_hamiltonian"])
def test_a_hermitian_defect_that_overflows_is_refused_without_a_warning(entry):
    # A - A^H holds 2e308, past the double range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError):
            entry(np.array([[0.0, 1e308], [-1e308, 0.0]]))


@pytest.mark.parametrize("entry", [
    matrix_exp,
    lambda a: evolve_state_hamiltonian(
        a, QuantumState.from_occupations(enumerate_basis(3, 1), (1, 0, 0))),
], ids=["matrix_exp", "evolve_state_hamiltonian"])
def test_a_spectrum_that_overflows_is_refused_without_a_warning(entry):
    # Hermitian with finite entries, but its largest eigenvalue, 3e308, is not finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapacityError):
            entry(np.full((3, 3), 1e308))


def test_the_vacuum_keeps_the_one_photon_hermitian_rule():
    vacuum = QuantumState.from_occupations(enumerate_basis(2, 0), (0, 0))
    with pytest.raises(NotHermitianError):
        evolve_state_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), vacuum)
    # Within HERMITIAN_TOL on one photon; its 20-photon generator, up to
    # sqrt(11 * 10) times larger, is not.
    a = np.array([[0.0, 1.0], [1.0 + 0.9e-10, 0.0]])
    for photons in (0, 1):
        require_hermitian(a, photons)
    with pytest.raises(NotHermitianError):
        require_hermitian(a, 20)


def test_log_exp_roundtrip(splitter_ii):
    rng = np.random.default_rng(RNG_SEED)
    matrices = [unitarize(splitter_ii)] + [haar_unitary(4, rng) for _ in range(20)]
    for u in matrices:
        a = effective_hamiltonian(u)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-10
        assert np.max(np.abs(matrix_exp(a) - u)) <= 1e-9
        # independent exponential as oracle
        assert np.max(np.abs(scipy.linalg.expm(-1j * a) - u)) <= 1e-9


@pytest.mark.parametrize("thetas", [
    pytest.param([0.4, 0.4, 0.4, -2.0, 1.9], id="degenerate_triple"),
    pytest.param([1.1, 1.1 + 0.5e-10, 1.1 + 1e-10, -0.3], id="cluster_1e-10"),
    pytest.param([np.pi - 1e-9, -np.pi + 1e-9, 0.2, -1.5], id="near_cut_both_sides"),
    pytest.param(None, id="haar_16"),
])
def test_generator_of_hard_spectra(thetas):
    rng = np.random.default_rng(RNG_SEED + 1)
    if thetas is None:
        u = haar_unitary(16, rng)
    else:
        v = haar_unitary(len(thetas), rng)
        u = (v * np.exp(1j * np.array(thetas))) @ v.conj().T
    a = effective_hamiltonian(u)
    assert np.max(np.abs(scipy.linalg.expm(-1j * a) - u)) <= 1e-12
    eigs = np.linalg.eigvalsh(a)
    assert np.all(eigs > -np.pi) and np.all(eigs <= np.pi)


def test_generator_matches_schur_log(splitter_i, splitter_ii):
    rng = np.random.default_rng(RNG_SEED)
    matrices = [unitarize(splitter_i), unitarize(splitter_ii)]
    matrices += [haar_unitary(4, rng) for _ in range(20)]
    for u in matrices:
        assert np.max(np.abs(effective_hamiltonian(u) - schur_generator(u))) <= 1e-12


_BY_MATRIX = {
    "unitarize": unitarize,
    "unitarity_defect": unitarity_defect,
    "max_unitarity_defect": max_unitarity_defect,
    "evolve_state": lambda u: evolve_state(u, state_from_spec("1,2,0,1")[1]).amplitudes,
    "noon_report": lambda u: noon_report(u, state_from_spec("1,2,0,1")[1]),
    "sweep_inputs": lambda u: sweep_inputs(u, 3),
    "effective_hamiltonian": effective_hamiltonian,
    "from_array": lambda u: MatrixFile.from_array(u, "view"),
}


@pytest.mark.parametrize("view", [np.transpose, lambda u: u[:, ::-1]],
                         ids=["transposed", "reversed_columns"])
@pytest.mark.parametrize("entry", _BY_MATRIX.values(), ids=_BY_MATRIX.keys())
def test_entry_points_take_non_contiguous_matrices(splitter_ii, entry, view):
    matrix = view(unitarize(splitter_ii))
    assert not matrix.flags.c_contiguous
    got, expected = entry(matrix), entry(np.ascontiguousarray(matrix))
    if isinstance(expected, np.ndarray):
        np.testing.assert_array_equal(got, expected)
    else:
        assert got == expected


# --- matrix files -----------------------------------------------------------

def test_bundled_files_roundtrip_bit_exact():
    for name in (reference.SPLITTER_I, reference.SPLITTER_II):
        path = reference.data_path(f"{name}.json")
        original = path.read_text()
        assert dumps_matrix(loads_matrix(original)) == original


def test_from_array_roundtrips_floats(splitter_ii):
    u = unitarize(splitter_ii)
    mf = MatrixFile.from_array(u, "test")
    assert np.max(np.abs(mf.to_array() - u)) < 1e-15


def test_decimal_strings_survive(tmp_path):
    text = loads_matrix(reference.data_path("splitter_ii.json").read_text())
    assert str(text.entries[3].magnitude) == "0.50"
    assert str(text.entries[3].phase_deg) == "-44"


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(MatrixFileError):
        load_matrix(tmp_path / "nope.json")


@pytest.mark.parametrize("text", [
    "not json at all",
    '{"dim": 4, "label": "x"}',
    '{"dim": 3, "label": "x", "entries": []}',
    '{"dim": 2, "label": "x", "entries": [{"mag": 1}, {"mag": 1}, {"mag": 1}, {"mag": 1}]}',
    "[]",
    '{"dim": "2", "label": "x", "entries": []}',
    '{"dim": 2, "label": "x", "entries": {}}',
    '{"dim": 2, "label": "x", "entries": [' + ", ".join(['{"mag": 1, "phase_deg": 0}'] * 4)
    + '], "meta": []}',
    '{"dim": 1, "label": "x", "entries": [{"mag": 1, "phase_deg": 0}]}',
])
def test_malformed_matrix_files(text):
    with pytest.raises(MatrixFileError):
        loads_matrix(text)


NOT_A_NUMBER = ["[1]", "true", "false", "[0, [1], 0]", '"0.5"', "null", "{}"]


def _matrix_text(bad: str, field: str) -> str:
    """A 2x2 identity matrix file whose first entry's `field` is `bad`."""
    first = {"mag": "1", "phase_deg": "0"}
    first[field] = bad
    cells = [f'{{"mag": {first["mag"]}, "phase_deg": {first["phase_deg"]}}}',
             '{"mag": 0, "phase_deg": 0}', '{"mag": 0, "phase_deg": 0}',
             '{"mag": 1, "phase_deg": 0}']
    return '{"dim": 2, "label": "x", "entries": [' + ", ".join(cells) + "]}"


@pytest.mark.parametrize("field", ["mag", "phase_deg"])
@pytest.mark.parametrize("bad", NOT_A_NUMBER)
def test_matrix_values_must_be_numbers(bad, field):
    with pytest.raises(MatrixFileError):
        loads_matrix(_matrix_text(bad, field))


@pytest.mark.parametrize("bad", NOT_A_NUMBER)
def test_unitarize_rejects_non_numeric_value_with_exit_2(bad, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(_matrix_text(bad, "mag"))
    assert main(["unitarize", "--matrix", str(path),
                 "--out", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()


def test_polar_entry_accepts_numpy_float():
    entry = PolarEntry(np.float64(0.5), np.float64(-44.0))
    assert entry == PolarEntry(Decimal("0.5"), Decimal("-44.0"))
