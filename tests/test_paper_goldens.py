"""The paper's commands reproduce the benchmark's recorded outputs byte for byte.

``benchmarks/goldens/paper.json`` holds the stdout of each command, and the
matrix file each ``unitarize`` writes, with the output directory written as
``@TMP``. This test only reads that file.
"""

import json
from pathlib import Path

import pytest

from noonforge import reference
from noonforge.cli import main

GOLDENS = Path(__file__).resolve().parent.parent / "benchmarks" / "goldens" / "paper.json"
SPLITTER_I = str(reference.data_path("splitter_i.json"))
SPLITTER_II = str(reference.data_path("splitter_ii.json"))

PAPER_COMMANDS = {
    "reproduce": ["reproduce", "--json"],
    "noon-0,0,1,1": ["noon", "--json", "--matrix", SPLITTER_II, "--input", "0,0,1,1"],
    "noon-0,1,1,1": ["noon", "--json", "--matrix", SPLITTER_II, "--input", "0,1,1,1"],
    "noon-1,1,1,1": ["noon", "--json", "--matrix", SPLITTER_II, "--input", "1,1,1,1"],
    "noon-select": ["noon", "--matrix", SPLITTER_II, "--input", "0,0,1,1",
                    "--select", "1,1,0,0;0,0,1,1"],
    "evolve-0,0,1,1": ["evolve", "--json", "--matrix", SPLITTER_II, "--input", "0,0,1,1"],
    "unitarize-splitter_i": ["unitarize", "--json", "--matrix", SPLITTER_I,
                             "--out", "@TMP/splitter_i.json"],
    "unitarize-splitter_ii": ["unitarize", "--json", "--matrix", SPLITTER_II,
                              "--out", "@TMP/splitter_ii.json"],
}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def test_every_golden_is_replayed(goldens):
    assert sorted(goldens) == sorted(PAPER_COMMANDS)


@pytest.mark.parametrize("name", sorted(PAPER_COMMANDS))
def test_paper_command_matches_golden(name, goldens, tmp_path, capsys):
    argv = [arg.replace("@TMP", str(tmp_path)) for arg in PAPER_COMMANDS[name]]
    assert main(argv) == 0
    golden = goldens[name]
    assert capsys.readouterr().out.replace(str(tmp_path), "@TMP") == golden["stdout"]
    if "written" in golden:
        out = Path(argv[argv.index("--out") + 1])
        assert out.read_text() == golden["written"]
