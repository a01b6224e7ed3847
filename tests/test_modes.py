import numpy as np
import pytest

from noonforge import (
    Mode,
    ModeNotFoundError,
    Polarization,
    ShapeError,
    Side,
    SubspaceError,
    build_subspace,
    check_independence,
    load_subspace,
    parse_mode,
    port_of,
    reference,
)

L, R = Polarization.L, Polarization.R
GLASS, AIR = Side.GLASS, Side.AIR

SUBSPACE_I_MODES = [Mode(L, GLASS, -1), Mode(R, GLASS, +1),
                    Mode(L, AIR, +1), Mode(R, AIR, -1)]
SUBSPACE_II_IN = [Mode(L, GLASS, -2), Mode(R, GLASS, 0),
                  Mode(L, AIR, 0), Mode(R, AIR, -2)]
SUBSPACE_II_OUT = [Mode(R, GLASS, +2), Mode(L, GLASS, 0),
                   Mode(R, AIR, 0), Mode(L, AIR, +2)]


def test_mode_string_roundtrip():
    for text in ["L:d:-2", "R:a:0", "L:a:+2", "R:d:+1"]:
        assert str(parse_mode(text)) == text.replace(":2", ":+2")
    assert parse_mode("L:d:-2") == Mode(L, GLASS, -2)
    assert str(Mode(R, AIR, 0)) == "R:a:0"


def test_parse_mode_rejects_garbage():
    for text in ["L:d", "X:d:0", "L:q:0", "L:d:two", "L:d:0:0"]:
        with pytest.raises(SubspaceError):
            parse_mode(text)


def test_build_four_dimensional_subspace(splitter_i):
    sub = build_subspace("I", 1525.1, SUBSPACE_I_MODES, SUBSPACE_I_MODES, splitter_i)
    assert sub.dimension == 4
    assert sub.executable


def test_build_eight_dimensional_subspace(splitter_ii):
    sub = build_subspace("II", 1523.3, SUBSPACE_II_IN, SUBSPACE_II_OUT, splitter_ii)
    assert sub.dimension == 8
    assert sub.all_modes() == frozenset(SUBSPACE_II_IN) | frozenset(SUBSPACE_II_OUT)


def test_declared_dimension_must_match_mode_sets():
    with pytest.raises(SubspaceError):
        build_subspace("bad", 1500.0, SUBSPACE_II_IN, SUBSPACE_II_OUT, dimension=4)
    with pytest.raises(SubspaceError):
        build_subspace("bad", 1500.0, SUBSPACE_I_MODES, SUBSPACE_I_MODES, dimension=8)


def test_partial_overlap_rejected():
    outputs = [SUBSPACE_II_IN[0]] + SUBSPACE_II_OUT[1:]
    with pytest.raises(SubspaceError):
        build_subspace("bad", 1500.0, SUBSPACE_II_IN, outputs)


def test_duplicate_modes_rejected():
    modes = [SUBSPACE_I_MODES[0]] * 2 + SUBSPACE_I_MODES[2:]
    with pytest.raises(SubspaceError):
        build_subspace("bad", 1500.0, modes, modes)


def test_matrix_shape_checked():
    with pytest.raises(ShapeError):
        build_subspace("bad", 1500.0, SUBSPACE_I_MODES, SUBSPACE_I_MODES, np.eye(3))


def test_bundled_registry_is_independent():
    registry = [reference.bundled_subspace(label) for label in ("I", "II", "III")]
    assert check_independence(registry) == []
    assert [s.wavelength_nm for s in registry] == [1525.1, 1523.3, 1519.1]
    assert registry[0].executable and registry[1].executable
    assert not registry[2].executable


def test_same_wavelength_shared_mode_conflicts():
    a = build_subspace("A", 1500.0, SUBSPACE_I_MODES, SUBSPACE_I_MODES)
    shifted = [Mode(L, GLASS, -1), Mode(R, GLASS, +3),
               Mode(L, AIR, +3), Mode(R, AIR, -3)]
    b = build_subspace("B", 1500.005, shifted, shifted)
    conflicts = check_independence([a, b])
    assert len(conflicts) == 1
    assert conflicts[0].shared_modes == (Mode(L, GLASS, -1),)
    # distinct wavelengths never conflict, whatever the modes
    c = build_subspace("C", 1502.0, SUBSPACE_I_MODES, SUBSPACE_I_MODES)
    assert check_independence([a, c]) == []


def test_check_independence_empty_and_singleton():
    assert check_independence([]) == []
    solo = build_subspace("solo", 1500.0, SUBSPACE_I_MODES, SUBSPACE_I_MODES)
    assert check_independence([solo]) == []


def test_port_of_examples(splitter_ii):
    sub = reference.bundled_subspace("II")
    assert port_of(sub, Mode(L, AIR, 0), "input") == 2
    assert port_of(sub, Mode(R, AIR, 0), "output") == 2
    sub1 = reference.bundled_subspace("I")
    with pytest.raises(ModeNotFoundError):
        port_of(sub1, Mode(L, GLASS, 0), "input")


def test_port_of_is_a_bijection():
    for label in ("I", "II", "III"):
        sub = reference.bundled_subspace(label)
        for direction, modes in (("input", sub.input_modes),
                                 ("output", sub.output_modes)):
            indices = [port_of(sub, m, direction) for m in modes]
            assert sorted(indices) == [0, 1, 2, 3]


def test_bundled_subspace_matrices_match_files(splitter_i, splitter_ii):
    assert np.array_equal(reference.bundled_subspace("I").matrix, splitter_i)
    assert np.array_equal(reference.bundled_subspace("II").matrix, splitter_ii)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"), 0.0, -1.0, True, "1500", None, [1500.0],
])
def test_wavelength_must_be_finite_positive_number(bad):
    with pytest.raises(SubspaceError):
        build_subspace("bad", bad, SUBSPACE_I_MODES, SUBSPACE_I_MODES)


@pytest.mark.parametrize("bad", [
    '"abc"', "[1]", "true", "null", "NaN", "Infinity", "-1", "0",
])
def test_load_subspace_rejects_bad_wavelength(bad, tmp_path):
    path = tmp_path / "subspace.json"
    path.write_text('{"label": "X", "wavelength_nm": ' + bad + ', '
                    '"inputs": ["L:d:-1", "R:d:+1", "L:a:+1", "R:a:-1"], '
                    '"outputs": ["L:d:-1", "R:d:+1", "L:a:+1", "R:a:-1"]}')
    with pytest.raises(SubspaceError):
        load_subspace(path)
