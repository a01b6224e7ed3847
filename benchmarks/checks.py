"""Output checks that do not rely on the code under test.

``paper`` outputs are compared byte for byte with goldens captured from the
package at the commit that introduced this benchmark. Every other output is
checked against the closed form for bunched amplitudes,

    <N e_j| S |n> = sqrt(N! / prod_i n_i!) * prod_i U[j, i] ** n_i,

with U = polar(S).T computed here from the raw matrix file, plus the output
norm and, for ``sweep``, the row set and ranking. Tolerances follow the
decimals each output prints.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

GOLDENS = Path(__file__).resolve().parent / "goldens" / "paper.json"

# Hamiltonian-route amplitudes agree with the permanent route to 1e-8.
API_TOL = 1e-8


def load_operator(path) -> np.ndarray:
    """Evolution operator U = polar(S).T from a matrix file, using numpy only."""
    doc = json.loads(Path(path).read_text())
    dim = doc["dim"]
    s = np.array([e["mag"] * np.exp(1j * math.radians(e["phase_deg"]))
                  for e in doc["entries"]], dtype=complex).reshape(dim, dim)
    w, _, vh = np.linalg.svd(s)
    return (w @ vh).T


@functools.cache
def basis_states(modes: int, photons: int) -> list[tuple[int, ...]]:
    """Every occupation tuple, lexicographically descending."""
    return [occ for occ in itertools.product(range(photons, -1, -1), repeat=modes)
            if sum(occ) == photons]


def bunched_amplitudes(u: np.ndarray, terms) -> np.ndarray:
    """<N e_j|S|psi> for every port j, psi = normalized sum of (amp, deg, occ) terms."""
    coeffs = np.array([amp * np.exp(1j * math.radians(deg)) for amp, deg, _ in terms])
    coeffs /= np.linalg.norm(coeffs)
    total = np.zeros(u.shape[0], dtype=complex)
    for c, (_, _, occ) in zip(coeffs, terms):
        n = sum(occ)
        scale = math.sqrt(math.factorial(n) / math.prod(math.factorial(k) for k in occ))
        total += c * scale * np.prod(u ** np.asarray(occ), axis=1)
    return total


def _bunched(port: int, photons: int, modes: int) -> tuple[int, ...]:
    return tuple(photons if j == port else 0 for j in range(modes))


def check_evolve(stdout: str, u: np.ndarray, terms) -> str | None:
    """Problem with an ``evolve --json`` table, or None if it is correct."""
    doc = json.loads(stdout)
    modes, photons = u.shape[0], sum(terms[0][2])
    if (doc["modes"], doc["photons"]) != (modes, photons):
        return f"table is {doc['modes']} modes / {doc['photons']} photons"
    rows = {tuple(int(k) for k in r["state"].split(",")): r for r in doc["amplitudes"]}
    states = basis_states(modes, photons)
    if [tuple(int(k) for k in r["state"].split(",")) for r in doc["amplitudes"]] != states:
        return "table rows are not the full basis in descending order"
    mags = np.array([r["mag"] for r in doc["amplitudes"]])
    # Each printed magnitude is within 5e-7 of the true one.
    norm_tol = 1e-6 * math.sqrt(len(mags)) + 1e-9
    if abs(float(np.sum(mags ** 2)) - 1.0) > norm_tol:
        return f"norm^2 {float(np.sum(mags ** 2)):.9f} is not 1"
    expected = bunched_amplitudes(u, terms)
    for j, want in enumerate(expected):
        r = rows[_bunched(j, photons, modes)]
        got = r["mag"] * np.exp(1j * math.radians(r["phase_deg"]))
        if abs(got - want) > 1e-6:
            return f"bunched amplitude {j}: {got:.6f} != {want:.6f}"
    return None


def check_sweep(stdout: str, u: np.ndarray, photons: int) -> str | None:
    """Problem with a ``sweep --json`` ranking, or None if it is correct."""
    doc = json.loads(stdout)
    modes = u.shape[0]
    if (doc["photons"], doc["modes"]) != (photons, modes):
        return f"sweep is {doc['photons']} photons / {doc['modes']} modes"
    inputs = [tuple(int(k) for k in r["input"].split(",")) for r in doc["rows"]]
    if sorted(inputs) != sorted(basis_states(modes, photons)):
        return "sweep rows are not every input exactly once"
    # On the bundled splitters every 5-8 photon input keeps some bunched
    # weight (at least 1.6e-4), so the fidelity is always defined.
    success = []
    for occ, row in zip(inputs, doc["rows"]):
        amps = bunched_amplitudes(u, [[1, 0, occ]])
        p = float(np.sum(np.abs(amps) ** 2))
        fidelity = float(np.sum(np.abs(amps))) ** 2 / (modes * p)
        success.append(p)
        if abs(row["success_probability"] - p) > 5e-5 + 1e-9:
            return f"{occ}: success {row['success_probability']} != {p:.6f}"
        if abs(row["fidelity"] - fidelity) > 5e-5 + 1e-9:
            return f"{occ}: fidelity {row['fidelity']} != {fidelity:.6f}"
    # Rows rank by descending success; near-equal successes (splitter I is
    # nearly symmetric) may come in either order, as rounding decides.
    for k in range(1, len(inputs)):
        if success[k] - success[k - 1] > 1e-12:
            return f"rows {k - 1} and {k} are out of order"
    return None


def check_table(table, u: np.ndarray, terms) -> str | None:
    """Problem with an API TransitionTable, or None if it is correct."""
    photons = sum(terms[0][2])
    amps = np.asarray(table.amplitudes)
    states = basis_states(u.shape[0], photons)
    if amps.shape != (len(states),):
        return f"{amps.shape[0]} amplitudes for a basis of {len(states)}"
    if abs(float(np.linalg.norm(amps)) - 1.0) > API_TOL:
        return f"norm {float(np.linalg.norm(amps)):.12f} is not 1"
    expected = bunched_amplitudes(u, terms)
    for j, want in enumerate(expected):
        got = amps[states.index(_bunched(j, photons, u.shape[0]))]
        if abs(got - want) > API_TOL:
            return f"bunched amplitude {j}: {got:.10f} != {want:.10f}"
    return None


class Checker:
    """Checks one operation's result; holds the goldens and operators it needs."""

    def __init__(self, data_dir, tmp_dir: str):
        self.tmp_dir = tmp_dir
        self.goldens = json.loads(GOLDENS.read_text())
        self.operators = {name: load_operator(Path(data_dir) / f"{name}.json")
                          for name in ("splitter_i", "splitter_ii")}

    def check(self, op: dict, result) -> str | None:
        """Problem with `result` (see ``Executor.run``), or None if it is correct."""
        if op["kind"] == "api":
            return check_table(result, self.operators[op["matrix"]], op["terms"])
        rc, stdout = result
        if rc != 0:
            return f"exit code {rc}"
        golden = self.goldens.get(op["name"])
        if golden is not None:
            if stdout.replace(self.tmp_dir, "@TMP") != golden["stdout"]:
                return "stdout differs from the golden"
            if "written" in golden:
                out = op["argv"][op["argv"].index("--out") + 1]
                if Path(out.replace("@TMP", self.tmp_dir)).read_text() != golden["written"]:
                    return "written matrix file differs from the golden"
            return None
        if op["argv"][0] == "evolve":
            return check_evolve(stdout, self.operators[op["matrix"]], op["terms"])
        return check_sweep(stdout, self.operators[op["matrix"]], op["photons"])
