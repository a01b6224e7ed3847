"""What remains of the subspace model once the mode layer is gone.

Each bundled splitter file names its subspace and wavelength in `meta`, and
`unitarize` must carry those labels through to the file it writes; the
shared-process entry-pair check still applies to four-port matrices only.
"""

import numpy as np
import pytest

from noonforge import ShapeError, cli, load_matrix, reference, validate_symmetry

BUNDLED = {"I": (reference.SPLITTER_I, 1525.1), "II": (reference.SPLITTER_II, 1523.3)}


def test_bundled_subspace_matrices_match_files(splitter_i, splitter_ii):
    for name, fixture in ((reference.SPLITTER_I, splitter_i),
                          (reference.SPLITTER_II, splitter_ii)):
        mf = reference.bundled_matrix(name)
        labelled, _ = BUNDLED[mf.meta["subspace"]]
        assert labelled == name
        assert np.array_equal(load_matrix(reference.data_path(f"{name}.json")).to_array(),
                              fixture)
        assert np.array_equal(mf.to_array(), fixture)


def test_bundled_registry_is_independent(tmp_path, capsys):
    # distinct wavelengths never share a mode, so the bundled subspaces are
    # independent; unitarize must keep the labels that say so
    seen = {}
    for label, (name, wavelength) in BUNDLED.items():
        out_path = tmp_path / f"{name}.json"
        code = cli.main(["unitarize", "--matrix", str(reference.data_path(f"{name}.json")),
                         "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        meta = load_matrix(out_path).meta
        assert meta == reference.bundled_matrix(name).meta
        assert meta["subspace"] == label
        assert float(meta["wavelength_nm"]) == wavelength
        seen[float(meta["wavelength_nm"])] = label
    assert sorted(seen.values()) == sorted(BUNDLED)


def test_matrix_shape_checked(splitter_i, splitter_ii):
    assert splitter_i.shape == splitter_ii.shape == (4, 4)
    with pytest.raises(ShapeError):
        validate_symmetry(np.eye(5), 0.1, 1.0)
