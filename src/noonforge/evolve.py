"""Multiphoton Fock-state evolution through a unitary multiport.

The production path computes each transition amplitude from one matrix
permanent of a repeated-row/column submatrix, by Glynn's formula with the
copies of each port of the counted side summed by their count: a side holding
s_1 >= s_2 >= ... photons in its occupied ports costs
(s_1//2 + 1) prod_(r>1) (s_r + 1) terms instead of 2^(N-1) (Glynn 2010;
Chin & Huh 2018, Sci. Rep. 8:6101). The counted side is the output, or the
input where only the input is bunched into one port; a bunched side takes the
closed form N! prod_i a_i of a one-column permanent and sums no terms. The
terms' tables and each occupation tuple's ports sit in fock.BoundedCache
instances. The cross-check propagates the state by a Chebyshev series on the
second-quantized generator's exact spectral interval [n lambda_min(A), n lambda_max(A)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError, NotHermitianError, ShapeError
from .fock import (CACHE_BYTES, BoundedCache, FockBasis, FockState, QuantumState, _whole,
                   amplitude_rows, rank_descending, state_to_spec)
from .unitary import HERMITIAN_TOL, as_complex, require_hermitian, require_square, require_unitary

PERMANENT_CAP = 16
# Most operations the Hamiltonian route's Chebyshev series may take, estimated
# as (term bound) x ((m^2 + 2m) |T| + m dim) for the |T| states of one photon
# fewer: a mat-vec's m x m product, its two scalings and its gathered sums.
# Checked before any table is built; it admits about 1.2 million states of 4
# modes under a coupling of narrow spectrum.
HAMILTONIAN_WORK_CAP = 2 ** 30
# The Chebyshev series ends after its last coefficient above this magnitude.
# The coefficients come from an FFT whose rounding noise is a few 1e-16, so a
# cutoff below that would never end the series early.
CHEBYSHEV_CUTOFF = 1e-15


# Glynn tables by bytes; the largest, all-ones at PERMANENT_CAP columns, is 8.5 MiB.
_table_cache = BoundedCache(CACHE_BYTES)


def _glynn_table(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Glynn's sign vectors for columns repeated `counts` times (sorted descending).

    One column per vector f of flipped copies, f_c in 0..counts[c] and f_0 in
    0..counts[0] // 2, with f_1 varying fastest: the coefficients
    counts[c] - 2 f_c as rows, and the weights prod_c C(m_c, f_c) (-1)^f_c
    over 2^(n-1), halved where 2 f_0 = m_0. For all-ones counts these are the
    2^(n-1) sign vectors with delta_0 = +1 and their sign products over
    2^(n-1); a power of two scales a sum exactly, so folding it into the
    weights changes no bit of the result. Both are complex and read-only,
    cached per `counts`: a complex matrix times a float table would convert
    the table to complex on every call.
    """
    entry = _table_cache.get(counts)
    if entry is not None:
        return entry
    sizes = (counts[0] // 2 + 1, *(k + 1 for k in counts[1:]))
    flips = np.indices(sizes[::-1]).reshape(len(sizes), -1)[::-1]
    weights = np.ones(flips.shape[1])
    for k, f in zip(counts, flips):
        weights *= np.array([(-1) ** j * math.comb(k, j) for j in range(k + 1)])[f]
    weights[2 * flips[0] == counts[0]] /= 2
    coeffs = (np.array(counts)[:, None] - 2 * flips).astype(complex)
    weights = (weights / 2 ** (sum(counts) - 1)).astype(complex)
    coeffs.flags.writeable = weights.flags.writeable = False
    return _table_cache.admit(counts, (coeffs, weights), coeffs.nbytes + weights.nbytes)


def require_permanent_size(n: int) -> None:
    """CapacityError if an n x n permanent, an amplitude of n photons, exceeds the cap."""
    if n > PERMANENT_CAP:
        raise CapacityError(
            f"a {n}x{n} permanent ({n} photons) exceeds the cap of {PERMANENT_CAP}")


def permanent(matrix, counts=None) -> complex:
    """Permanent of `matrix` with column c repeated counts[c] times (default once).

    Glynn's formula, per(A) = 2^-(n-1) sum_delta (prod_k delta_k)
    prod_i sum_j delta_j A[i,j] over the sign vectors delta with delta_0 = +1,
    sums the copies of a repeated column together: a term per vector f of
    flipped copies, weighted by prod_c C(m_c, f_c) (-1)^f_c (Glynn 2010;
    Chin & Huh 2018, Sci. Rep. 8:6101). The global flip f -> m - f leaves a
    term unchanged, so f_0 stops at m_0 / 2 with the largest count first.
    That is (m_0 // 2 + 1) prod_(c>0) (m_c + 1) terms, 2^(n-1) with no
    repeats, each one column of an (n x k) @ (k x terms) product, then a
    column product and a dot, with no Python loop. One column repeated n
    times needs no sum: its permanent is n! prod_i a_i, taken in closed form
    on Python complexes, which is cheaper than the (n//2 + 1)-term sum and
    exact to a few ulps. The tables are cached per descending counts, so one
    per partition of n into two parts or more at most, and hold at most
    fock.CACHE_BYTES together. The all-ones table at n = PERMANENT_CAP = 16
    holds 8.5 MiB; the tables of every partition of 16 into two to four
    parts, all a 4-mode amplitude of 16 photons reaches, hold 0.65 MiB.
    """
    if counts is None:
        a = require_square(matrix).T
        key = counts = (1,) * a.shape[0]
    else:
        a = as_complex(matrix)
        key = counts
        checked = type(counts) is _Counts
        if not checked:
            counts = _whole(counts, "column counts")
            key = tuple(sorted(counts, reverse=True))
        if a.shape != (sum(counts), len(counts)):
            raise ShapeError(f"expected a ({sum(counts)}, {len(counts)}) matrix for "
                             f"column counts {counts}, got shape {a.shape}")
        if not (checked or np.all(np.isfinite(a))):
            raise ShapeError("matrix entries must be finite")
    n = a.shape[0]
    require_permanent_size(n)
    if n == 0:
        return 1 + 0j
    if len(counts) == 1:
        return math.factorial(n) * math.prod(a.ravel().tolist())
    if key != counts:
        a = a[:, sorted(range(len(counts)), key=counts.__getitem__, reverse=True)]
    coeffs, weights = _glynn_table(key)
    # prod(axis=0) multiplies n long contiguous rows elementwise; reducing
    # along the other axis, over many short rows, is about 4x slower at n = 9.
    return complex(np.dot((a @ coeffs).prod(axis=0), weights))


class _Counts(tuple):
    """Column counts that `_new_ports` checked and sorted descending; `permanent`
    takes them, and the matrix `transition_amplitude` built for them, as they are."""

    __slots__ = ()


class _Ports(NamedTuple):
    """The ports of one occupation tuple, as `transition_amplitude` indexes them."""

    photons: int
    repeated: np.ndarray  # port i repeated occ[i] times
    occupied: np.ndarray  # ports with occ[i] > 0, most photons first
    counts: _Counts  # occ[i] of each occupied port, in that order
    norm: int  # prod occ[i]!
    occ: tuple[int, ...]  # the checked tuple this entry was built from


# Most occupation tuples _ports keeps, each of size 1; every basis of 4 modes
# up to PERMANENT_CAP photons fits.
PORT_CACHE_SIZE = 4096
_port_cache = BoundedCache(PORT_CACHE_SIZE)


def _new_ports(occ: tuple[int, ...]) -> _Ports:
    """The _Ports of checked occupations, cached."""
    occupied = np.array(sorted((i for i, k in enumerate(occ) if k), key=lambda i: -occ[i]),
                        dtype=int)
    repeated = np.repeat(np.arange(len(occ)), occ)
    repeated.flags.writeable = occupied.flags.writeable = False
    return _port_cache.admit(occ, _Ports(sum(occ), repeated, occupied,
                                         _Counts(occ[i] for i in occupied),
                                         math.prod(math.factorial(k) for k in occ), occ), 1)


def _ports(occ, modes: int, role: str) -> _Ports:
    """The cached _Ports of `occ`, checked as occupations of `modes` modes.

    A hit skips the checks when `occ` is the very tuple its entry was built from,
    and all but a scan for plain ints when it is an equal tuple (1.0, True and
    numpy ints equal 1 and find it too); a miss or a non-tuple is checked in full.
    """
    try:
        entry = _port_cache.get(occ) if type(occ) is tuple else None
    except TypeError:  # a tuple holding an unhashable entry is checked as a miss
        entry = None
    if entry is None or entry.occ is not occ and not all(type(n) is int for n in occ):
        occ = _whole(occ, f"{role} occupations")
    if len(occ) != modes:
        raise ShapeError(f"{role} state lists {len(occ)} modes, matrix has {modes}")
    if entry is None:
        require_permanent_size(sum(occ))
        entry = _new_ports(occ)
    return entry


def transition_amplitude(matrix, state_in: FockState, state_out: FockState) -> complex:
    """<out|S|in> for a single-photon map U: per(U[out, in]) / sqrt(prod n_i! m_j!).

    U[out, in] repeats row j out_j times and column i in_i times. It reaches
    `permanent` transposed, with each occupied output port once and its
    occupation as the column count, so a bunched output costs fewer terms and
    one bunched into a single port none. per(A) = per(A^T), so an input
    bunched into a single port, with an output that is not, is counted in its
    place: every output of N e_i takes the closed form. Amplitudes across
    photon sectors are identically zero in a linear passive network, so
    mismatched photon numbers are rejected rather than silently zeroed, and
    more than PERMANENT_CAP photons before any index is built.
    """
    # Shape only: finiteness would add ~1.5 us per amplitude until ROADMAP item 4's kernel.
    u = as_complex(matrix)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {u.shape}")
    p_in = _ports(state_in, u.shape[0], "input")
    p_out = _ports(state_out, u.shape[0], "output")
    n = p_in.photons
    if p_out.photons != n:
        raise ShapeError(
            f"photon number mismatch: input has {n}, output has {p_out.photons}")
    if len(p_in.counts) == 1 < len(p_out.counts):
        u, p_in, p_out = u.T, p_out, p_in
    a = u.take(p_out.occupied, 0).take(p_in.repeated, 1).T
    return permanent(a, p_out.counts) / math.sqrt(p_in.norm * p_out.norm)


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

    def sorted_components(self):
        """(occupations, amplitude) pairs sorted by descending magnitude.

        Ties (within fock.NEGLIGIBLE_AMPLITUDE) keep basis order: the listing is deterministic.
        """
        pairs = [(occ, complex(a)) for occ, a in zip(self.basis.states, self.amplitudes)]
        return rank_descending(pairs, np.abs(self.amplitudes))

    def to_payload(self) -> dict:
        """Serialization payload; magnitudes and phases to 6 decimal places."""
        return {
            "modes": self.basis.modes,
            "photons": self.basis.photons,
            "input": state_to_spec(self.input),
            "amplitudes": amplitude_rows(self.basis.labels, self.amplitudes),
        }


def _require_normalized_on(state: QuantumState, modes: int) -> None:
    """ShapeError unless `state` spans `modes` modes; InputError unless it is normalized."""
    if state.basis.modes != modes:
        raise ShapeError(f"state has {state.basis.modes} modes, matrix has {modes} ports")
    if not state.is_normalized():
        raise InputError("input state must be normalized")


def require_evolvable(matrix, state: QuantumState) -> np.ndarray:
    """The unitary `matrix` as an array, checked to act on the normalized `state`."""
    u = require_unitary(matrix)
    _require_normalized_on(state, u.shape[0])
    return u


def _output_amplitudes(u: np.ndarray, state: QuantumState, targets) -> np.ndarray:
    """The amplitudes of the `targets` output states of `state` through the checked `u`:
    its (occupations, coeff) terms summed from zero in their order."""
    amplitudes = np.zeros(len(targets), dtype=complex)
    for occ_in, coeff in state.terms():
        for j, target in enumerate(targets):
            amplitudes[j] += coeff * transition_amplitude(u, occ_in, target)
    return amplitudes


def evolve_state(matrix, state: QuantumState) -> TransitionTable:
    """Evolve a normalized state through a unitary multiport.

    Amplitudes for every basis state are assembled by linearity over the
    input components; unitarity conserves the norm.
    """
    u = require_evolvable(matrix, state)
    return TransitionTable(state.basis, _output_amplitudes(u, state, state.basis.states),
                           input=state)


def _generator_entries(a: np.ndarray, basis: FockBasis):
    """Nonzero entries (rows, cols, vals) of sum_mn A[m,n] adag_m a_n on `basis`.

    adag_m a_n takes t + e_n to t + e_m, for t of one photon fewer, with the
    factor sqrt(t_n+1) sqrt(t_m+1); the basis's ladder gives rows and columns.
    Each pair with A[m,n] != 0, n-major, gives one block, one entry per t in
    basis order. t + e_m != t + e_n fixes m, n and t, so only the diagonal
    repeats across blocks, and block (n, m) mirrors block (m, n) row for row.
    """
    m_modes, n_modes = np.nonzero(a.T)[::-1]
    raised, root, _ = basis.ladder
    vals = a[m_modes, n_modes, None] * (root[n_modes] * root[m_modes])
    return raised[m_modes].ravel(), raised[n_modes].ravel(), vals.ravel()


def fock_hamiltonian(coupling, basis: FockBasis) -> np.ndarray:
    """Second-quantized generator on the n-photon basis, as a dense matrix.

    Matrix elements of sum_mn A[m,n] adag_m a_n, Hermitian whenever A is. The
    entries of `_generator_entries` are added in pair order, so repeated
    diagonal entries sum as a loop over states and mode pairs would sum them.
    The Hamiltonian route never builds this matrix; it serves tests and
    callers that want the generator itself.
    """
    a = require_square(coupling)
    if a.shape[0] != basis.modes:
        raise ShapeError(
            f"coupling matrix has {a.shape[0]} modes, basis has {basis.modes}")
    rows, cols, vals = _generator_entries(a, basis)
    h = np.zeros((len(basis), len(basis)), dtype=complex)
    np.add.at(h, (rows, cols), vals)
    return h


class _Generator(NamedTuple):
    """sum_mn A[m,n] adag_m a_n on n photons, applied through the basis's ladder.

    adag_m a_n takes t + e_n to t + e_m, t of n-1 photons, with the factor
    sqrt(t_n+1) sqrt(t_m+1): a mat-vec gathers x at each t + e_n, scales, mixes
    the modes by A, scales again and sums each state's m terms back, each step
    over m contiguous rows. The tables are FockBasis.ladder's, with root made
    complex so that no mat-vec casts it.
    """

    coupling: np.ndarray  # A
    raised: np.ndarray
    root: np.ndarray
    lowered: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        products = np.zeros(self.raised.size + 1, dtype=complex)  # the last is the zero slot
        mixed = products[:-1].reshape(self.raised.shape)
        np.matmul(self.coupling, x.take(self.raised) * self.root, out=mixed)
        mixed *= self.root
        return products.take(self.lowered).sum(axis=0)


def _sparse_generator(a: np.ndarray, basis: FockBasis) -> _Generator:
    """The generator of `a` on `basis`; NotHermitianError if max |H - H^H| > HERMITIAN_TOL.

    For scale[m, n] = max_t sqrt(t_m+1) sqrt(t_n+1), |A[m,n] - conj A[n,m]|
    scale[m,n] is the largest entry of H - H^H in block (m, n), a mirror block
    left out where A[n,m] == 0 counting as zero; the diagonal's is 2n |Im A[m,m]|.
    """
    raised, root, lowered = basis.ladder
    scale = np.max(root[:, None] * root[None], axis=2, initial=0.0)
    if np.max(np.abs(a - a.conj().T) * scale) > HERMITIAN_TOL:
        raise NotHermitianError("matrix must be Hermitian")
    return _Generator(a, raised, root.astype(complex), lowered)


def _spectral_interval(a: np.ndarray, photons: int) -> tuple[float, float]:
    """Ends of an interval holding the spectrum of the generator of `a` on n photons.

    That generator is dGamma(A), whose spectrum for Hermitian A is exactly
    [n lambda_min(A), n lambda_max(A)]. eigvalsh reads a Hermitian L with
    |A - L| <= |A - A^H| (A's lower triangle), so by Bauer-Fike the ends move
    by at most n ||A - A^H||_F; they are widened by that and by rounding.
    """
    lam = np.linalg.eigvalsh(a)
    rounding = 16 * len(a) * np.finfo(float).eps * np.max(np.abs(lam))
    pad = photons * (np.linalg.norm(a - a.conj().T) + rounding)
    return float(photons * lam[0] - pad), float(photons * lam[-1] + pad)


def _propagate(a: np.ndarray, basis: FockBasis, vector: np.ndarray) -> np.ndarray:
    """exp(-ih) @ vector for the generator h of `a` on `basis`, of n photons.

    With [lo, hi] = _spectral_interval, half = (hi-lo)/2 and mid = lo + half,
    exp(-ih) = exp(-i mid) f(x) for x = (h - mid)/half, the generator of
    (A - (mid/n) I)/half, of norm at most 2/n, with spectrum in [-1, 1].
    f(x) = exp(-i half x) = c_0 + 2 sum_k c_k T_k(x), c_k = (-i)^k J_k(half)
    (Jacobi-Anger); one FFT of f(cos phi) at 2K equispaced angles yields
    c_0 .. c_(K-1). Past the order half, J_k(half) decays on a scale of
    (half/2)^(1/3); for K = half + 12 half^(1/3) + 32 every J_k with k >= K is
    below 1e-20 (checked against scipy.special.jv for half up to 1e5), so
    neither truncation nor aliasing shows. ShapeError if the interval
    overflows; a K whose estimated work exceeds HAMILTONIAN_WORK_CAP is refused
    before any table is built. The Chebyshev recurrence ends after the last
    coefficient above CHEBYSHEV_CUTOFF (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967, 1984).
    """
    m, n, dim = basis.modes, basis.photons, len(basis)
    lo, hi = _spectral_interval(a, n)
    half = (hi - lo) / 2
    mid = lo + half  # finite wherever half is
    if not np.isfinite(half):
        raise ShapeError("matrix entries must be finite")
    if half < np.finfo(float).tiny:  # h is mid to within 1e-307, as for n = 0, where h = 0
        return np.exp(-1j * mid) * vector
    reach = half + 12 * np.cbrt(half)
    per_term = (m * m + 2 * m) * math.comb(n + m - 2, m - 1) + m * dim
    work = (reach + 32) * per_term
    if not work <= HAMILTONIAN_WORK_CAP:
        raise CapacityError(
            f"Hamiltonian route needs up to {reach + 32:.4g} Chebyshev terms of "
            f"{per_term} operations each on {dim} states, about {work:.3g} "
            f"operations; the cap is {HAMILTONIAN_WORK_CAP:.3g}")
    h = _sparse_generator(a, basis)
    x = (a - mid / n * np.eye(len(a))) / half
    size = int(reach) + 32
    angles = np.pi * np.arange(2 * size) / size
    coeffs = np.fft.fft(np.exp(-1j * half * np.cos(angles)))[:size] / (2 * size)
    terms = int(np.flatnonzero(np.abs(coeffs) > CHEBYSHEV_CUTOFF)[-1]) + 1
    h, double = h._replace(coupling=x), h._replace(coupling=2 * x)
    previous, current = vector, h @ vector
    total = coeffs[0] * previous + 2 * coeffs[1] * current
    for c in 2 * coeffs[2:terms]:
        previous, current = current, double @ current - previous
        total += c * current
    return np.exp(-1j * mid) * total


def evolve_state_hamiltonian(coupling, state: QuantumState) -> TransitionTable:
    """Evolve a normalized state under the second-quantized generator (t=1).

    A Chebyshev series on the generator's exact spectral interval, storing no
    generator entry and no dim x dim array; the cost grows with
    m^2 x dim x terms. Independent of the permanent path; the two must agree
    to 1e-8 per amplitude for any Hermitian coupling. CapacityError, before
    any table is built, for a series whose estimated work exceeds
    HAMILTONIAN_WORK_CAP.
    """
    a = require_hermitian(coupling)
    _require_normalized_on(state, a.shape[0])
    amplitudes = _propagate(a, state.basis, state.amplitudes)
    return TransitionTable(state.basis, amplitudes, input=state)
