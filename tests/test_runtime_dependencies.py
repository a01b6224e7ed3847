"""The package surface: its public names, and numpy as its only runtime dependency."""

import os
import subprocess
import sys
from pathlib import Path

import noonforge

SCRIPT = """
import contextlib, io, sys
import noonforge.cli
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
sys.modules["scipy"] = None  # any later `import scipy` raises ImportError

from noonforge import (effective_hamiltonian, evolution_operator, evolve_state,
                       evolve_state_hamiltonian, reference, state_from_spec, unitarize)
splitter = str(reference.data_path("splitter_ii.json"))
projected = sys.argv[1] + "/u.json"
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["reproduce", "--json"],
                 ["unitarize", "--matrix", splitter, "--out", projected],
                 ["evolve", "--json", "--matrix", projected, "--input", "1,1,1,1"],
                 ["noon", "--matrix", splitter, "--input", "1,1,1,1"],
                 ["noon", "--matrix", splitter, "--input", "0,0,1,1",
                  "--select", "1,1,0,0;0,0,1,1"],
                 ["sweep", "--json", "--matrix", splitter, "--photons", "4"]):
        assert noonforge.cli.main(argv) == 0, argv

u = evolution_operator(unitarize(reference.bundled_matrix(reference.SPLITTER_II).to_array()))
_, state = state_from_spec("1,1,1,1")
by_generator = evolve_state_hamiltonian(effective_hamiltonian(u), state)
assert abs(by_generator.amplitudes - evolve_state(u, state).amplitudes).max() <= 1e-8
"""


def test_cli_and_generator_run_without_scipy(tmp_path):
    src = str(Path(noonforge.__file__).resolve().parents[1])
    # the child keeps tier-1's warning contract: dev mode, every warning an error
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", SCRIPT,
                             str(tmp_path)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr


def test_public_api_resolves():
    assert len(noonforge.__all__) == len(set(noonforge.__all__))
    missing = [name for name in noonforge.__all__ if not hasattr(noonforge, name)]
    assert missing == []
