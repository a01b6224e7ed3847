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

with contextlib.redirect_stdout(io.StringIO()):
    assert noonforge.cli.main(["reproduce", "--json"]) == 0

from noonforge import (effective_hamiltonian, evolution_operator, evolve_state,
                       evolve_state_hamiltonian, reference, state_from_spec, unitarize)
u = evolution_operator(unitarize(reference.bundled_matrix(reference.SPLITTER_II).to_array()))
_, state = state_from_spec("1,1,1,1")
by_generator = evolve_state_hamiltonian(effective_hamiltonian(u), state)
assert abs(by_generator.amplitudes - evolve_state(u, state).amplitudes).max() <= 1e-8
"""


def test_cli_and_generator_run_without_scipy():
    src = str(Path(noonforge.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 0, result.stderr


def test_public_api_resolves():
    assert len(noonforge.__all__) == len(set(noonforge.__all__))
    missing = [name for name in noonforge.__all__ if not hasattr(noonforge, name)]
    assert missing == []
