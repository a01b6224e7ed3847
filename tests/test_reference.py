"""Transcription guards for the bundled data files.

The splitter files are the ground truth the whole reproduction rests on, so
they are pinned two ways: byte checksums, and an entry-by-entry comparison
against an independent transcription kept in this file.
"""

import hashlib
from importlib import resources

import pytest

from noonforge import reference

import test_acceptance

FILE_SHA256 = {
    "splitter_i.json": "425889767a3fd3db33e6962bbe5f5d39115d26058e044c94bd7fe67b9af40da2",
    "splitter_ii.json": "fc5e1ca7d6224f59a8a50f6bbbe4505582df16925c3569a79f0cff4825dd415b",
}

# Row-major (magnitude, phase_deg) strings, transcribed independently of the
# data files themselves.
SPLITTER_I_ENTRIES = [
    ("0.57", "-74"), ("0.45", "-51"), ("0.49", "-92"), ("0.48", "82"),
    ("0.45", "-51"), ("0.57", "-74"), ("0.48", "82"), ("0.49", "-92"),
    ("0.50", "-92"), ("0.48", "81"), ("0.41", "-126"), ("0.59", "-106"),
    ("0.48", "81"), ("0.50", "-92"), ("0.59", "-106"), ("0.41", "-126"),
]

SPLITTER_II_ENTRIES = [
    ("0.44", "-27"), ("0.57", "-64"), ("0.48", "91"), ("0.50", "-44"),
    ("0.57", "-63"), ("0.45", "-60"), ("0.49", "-96"), ("0.48", "113"),
    ("0.48", "92"), ("0.49", "-96"), ("0.59", "-115"), ("0.42", "-95"),
    ("0.50", "-44"), ("0.48", "111"), ("0.41", "-96"), ("0.59", "-41"),
]


def test_data_file_checksums():
    on_disk = {path.name for path in resources.files("noonforge").joinpath("data").iterdir()
               if path.name.endswith(".json")}
    assert on_disk == set(FILE_SHA256), "data/ holds unpinned or missing files"
    for filename, expected in FILE_SHA256.items():
        digest = hashlib.sha256(reference.data_path(filename).read_bytes()).hexdigest()
        assert digest == expected, f"{filename} changed on disk"


def test_splitter_entries_match_transcription():
    for name, entries in ((reference.SPLITTER_I, SPLITTER_I_ENTRIES),
                          (reference.SPLITTER_II, SPLITTER_II_ENTRIES)):
        mf = reference.bundled_matrix(name)
        assert mf.dim == 4
        got = [(str(e.magnitude), str(e.phase_deg)) for e in mf.entries]
        assert got == entries


def test_splitter_metadata():
    mf1 = reference.bundled_matrix(reference.SPLITTER_I)
    mf2 = reference.bundled_matrix(reference.SPLITTER_II)
    assert float(mf1.meta["wavelength_nm"]) == 1525.1
    assert float(mf2.meta["wavelength_nm"]) == 1523.3
    assert mf1.meta["subspace"] == "I"
    assert mf2.meta["subspace"] == "II"


def test_unknown_bundled_matrix_is_a_key_error():
    with pytest.raises(KeyError, match="splitter_iii"):
        reference.bundled_matrix("splitter_iii")


def test_reference_tables_match_frozen_acceptance_values():
    # the package's claim tables and the acceptance suite's frozen copies
    # must never drift apart
    assert reference.TWO_PHOTON_OUTPUT == test_acceptance.QUOTED_PAIR_OUTPUT
    assert reference.TWO_PHOTON_NOON_NORMALIZED == \
        test_acceptance.QUOTED_PAIR_NOON_NORMALIZED
    assert reference.ENTANGLED_MAGNITUDES == test_acceptance.QUOTED_ENTANGLED_MAGNITUDES
    assert reference.THREE_PHOTON_NOON_NORMALIZED == \
        test_acceptance.QUOTED_TRIPLE_NOON_NORMALIZED
    assert reference.FOUR_PHOTON_NOON_NORMALIZED == \
        test_acceptance.QUOTED_QUAD_NOON_NORMALIZED
