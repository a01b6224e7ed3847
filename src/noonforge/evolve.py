"""Multiphoton Fock-state evolution through a unitary multiport.

The production path computes transition amplitudes from matrix permanents of
repeated-row/column submatrices; an independent path exponentiates the
second-quantized generator on the n-photon basis and serves as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, ShapeError
from .fock import FockBasis, FockState, QuantumState, amplitude_row, state_to_spec
from .unitary import matrix_exp, require_hermitian, require_square, require_unitary

PERMANENT_CAP = 16


def permanent(matrix) -> complex:
    """Matrix permanent by Ryser's inclusion-exclusion with Gray-code subsets.

    O(2^n * n): comfortable for the desk-scale photon numbers this package
    targets. The subset accumulation is compensated (Kahan) to hold the
    1e-10 agreement with the brute-force permutation sum.
    """
    a = require_square(matrix)
    n = a.shape[0]
    if n > PERMANENT_CAP:
        raise CapacityError(
            f"permanent of a {n}x{n} matrix exceeds the cap of {PERMANENT_CAP}")
    if n == 0:
        return 1 + 0j

    columns = a.T.copy()
    row_sums = np.zeros(n, dtype=complex)
    total = 0j
    residue = 0j
    gray = 0
    for k in range(1, 1 << n):
        next_gray = k ^ (k >> 1)
        changed = gray ^ next_gray
        j = changed.bit_length() - 1
        if next_gray & changed:
            row_sums += columns[j]
        else:
            row_sums -= columns[j]
        gray = next_gray
        term = row_sums.prod()
        if k & 1:  # subset parity flips with every Gray step
            term = -term
        y = term - residue
        t = total + y
        residue = (t - total) - y
        total = t
    if n & 1:
        total = -total
    return complex(total)


def _occupation_vector(occ, modes: int, role: str) -> tuple[int, ...]:
    occ = tuple(int(n) for n in occ)
    if len(occ) != modes:
        raise ShapeError(f"{role} state lists {len(occ)} modes, matrix has {modes}")
    if any(n < 0 for n in occ):
        raise ShapeError(f"{role} occupations must be non-negative: {occ}")
    return occ


def transition_amplitude(matrix, state_in: FockState, state_out: FockState) -> complex:
    """<out|S|in> for a single-photon map U: per(U[out, in]) / sqrt(prod n_i! m_j!).

    U[out, in] repeats row j out_j times (outer) and column i in_i times
    (inner). Amplitudes across photon sectors are identically zero in a
    linear passive network, so mismatched photon numbers are rejected
    rather than silently zeroed.
    """
    u = require_square(matrix)
    occ_in = _occupation_vector(state_in, u.shape[0], "input")
    occ_out = _occupation_vector(state_out, u.shape[0], "output")
    n = sum(occ_in)
    if sum(occ_out) != n:
        raise ShapeError(
            f"photon number mismatch: input has {n}, output has {sum(occ_out)}")
    if n == 0:
        return 1 + 0j
    rows = np.repeat(np.arange(u.shape[0]), occ_out)
    cols = np.repeat(np.arange(u.shape[0]), occ_in)
    sub = u[np.ix_(rows, cols)]
    norm = math.prod(math.factorial(k) for k in occ_in) * \
        math.prod(math.factorial(k) for k in occ_out)
    return permanent(sub) / math.sqrt(norm)


def evolution_operator(scattering) -> np.ndarray:
    """Orient a port-basis scattering matrix for Fock-state evolution.

    The splitter files bundled with this package (and the convention their
    published multiphoton outputs follow) put the output distribution of
    input port i in row i. The permanent machinery above expects it in
    column i, so the evolution operator is the transpose.
    """
    return require_square(scattering).T.copy()


@dataclass(frozen=True, eq=False, kw_only=True)
class TransitionTable(QuantumState):
    """Output state over the full n-photon basis, with the input it evolved from."""

    input: QuantumState

    def output_state(self) -> QuantumState:
        return QuantumState(self.basis, self.amplitudes)

    def sorted_components(self):
        """(occupations, amplitude) pairs sorted by descending magnitude.

        Ties keep basis order, so the listing is deterministic.
        """
        pairs = [(occ, complex(a)) for occ, a in zip(self.basis.states, self.amplitudes)]
        pairs.sort(key=lambda p: -abs(p[1]))
        return pairs

    def to_payload(self) -> dict:
        """Serialization payload; magnitudes and phases to 6 decimal places."""
        return {
            "modes": self.basis.modes,
            "photons": self.basis.photons,
            "input": state_to_spec(self.input),
            "amplitudes": [amplitude_row(occ, a)
                           for occ, a in zip(self.basis.states, self.amplitudes)],
        }


def require_evolvable(matrix, state: QuantumState) -> np.ndarray:
    """The unitary `matrix` as an array, checked to act on the normalized `state`."""
    u = require_unitary(matrix)
    if state.basis.modes != u.shape[0]:
        raise ShapeError(
            f"state has {state.basis.modes} modes, matrix has {u.shape[0]} ports")
    if not state.is_normalized():
        raise InputError("input state must be normalized")
    return u


def evolve_state(matrix, state: QuantumState) -> TransitionTable:
    """Evolve a normalized state through a unitary multiport.

    Amplitudes for every basis state are assembled by linearity over the
    input components; unitarity conserves the norm.
    """
    u = require_evolvable(matrix, state)
    basis = state.basis
    amplitudes = np.zeros(len(basis), dtype=complex)
    for occ_in, coeff in zip(basis.states, state.amplitudes):
        if coeff == 0:
            continue
        for idx, occ_out in enumerate(basis.states):
            amplitudes[idx] += coeff * transition_amplitude(u, occ_in, occ_out)
    return TransitionTable(basis, amplitudes, input=state)


def fock_hamiltonian(coupling, basis: FockBasis) -> np.ndarray:
    """Second-quantized generator on the n-photon basis.

    Matrix elements of sum_mn A[m,n] adag_m a_n, using adag|k> = sqrt(k+1)|k+1>
    and a|k> = sqrt(k)|k-1>. Hermitian whenever A is.
    """
    a = require_square(coupling)
    if a.shape[0] != basis.modes:
        raise ShapeError(
            f"coupling matrix has {a.shape[0]} modes, basis has {basis.modes}")
    dim = len(basis)
    h = np.zeros((dim, dim), dtype=complex)
    for t_idx, occ in enumerate(basis.states):
        for n_mode in range(basis.modes):
            k_n = occ[n_mode]
            if k_n == 0:
                continue
            lowered = list(occ)
            lowered[n_mode] -= 1
            for m_mode in range(basis.modes):
                if a[m_mode, n_mode] == 0:
                    continue
                raised = list(lowered)
                raised[m_mode] += 1
                factor = math.sqrt(k_n) * math.sqrt(lowered[m_mode] + 1)
                h[basis.index_of(tuple(raised)), t_idx] += a[m_mode, n_mode] * factor
    return h


def evolve_state_hamiltonian(coupling, state: QuantumState) -> TransitionTable:
    """Evolve by exponentiating the second-quantized generator (t=1).

    Independent of the permanent path; the two must agree to 1e-8 per
    amplitude for any Hermitian coupling matrix.
    """
    h = fock_hamiltonian(require_hermitian(coupling), state.basis)
    amplitudes = matrix_exp(h) @ state.amplitudes
    return TransitionTable(state.basis, amplitudes, input=state)
