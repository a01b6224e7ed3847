"""Independent oracles, kept away from the production code paths they check."""

import functools
import itertools
import json
import math
from dataclasses import replace
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np
import scipy.linalg

from noonforge.errors import ShapeError, SpecError
from noonforge.fock import FockBasis, QuantumState, enumerate_basis
from noonforge.noon import noon_components
from noonforge.serialize import RawNumber
from noonforge.unitary import require_square


def naive_permanent(matrix) -> complex:
    """Permanent by explicit permutation sum, O(n! n), in Python complex arithmetic.

    The products are summed by math.fsum, real and imaginary parts apart, so
    n! equal products (a column repeated n times) sum without drift.
    """
    a = np.asarray(matrix, dtype=complex).tolist()
    n = len(a)
    if n == 0:
        return 1 + 0j
    products = []
    for perm in itertools.permutations(range(n)):
        prod = 1 + 0j
        for i, j in enumerate(perm):
            prod *= a[i][j]
        products.append(prod)
    return complex(math.fsum(p.real for p in products), math.fsum(p.imag for p in products))


def loop_fock_hamiltonian(coupling, basis: FockBasis) -> np.ndarray:
    """Second-quantized generator by a loop over states and mode pairs.

    Matrix elements of sum_mn A[m,n] adag_m a_n, using adag|k> = sqrt(k+1)|k+1>
    and a|k> = sqrt(k)|k-1>, each raised state looked up in a dict over
    basis.states, so no position comes from the basis's own ranking.
    """
    a = require_square(coupling)
    if a.shape[0] != basis.modes:
        raise ShapeError(
            f"coupling matrix has {a.shape[0]} modes, basis has {basis.modes}")
    index = {state: i for i, state in enumerate(basis.states)}
    h = np.zeros((len(index), len(index)), dtype=complex)
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
                h[index[tuple(raised)], t_idx] += a[m_mode, n_mode] * factor
    return h


def brute_force_occupations(modes: int, photons: int) -> set:
    """All occupation tuples by filtered cartesian product."""
    return {
        occ for occ in itertools.product(range(photons + 1), repeat=modes)
        if sum(occ) == photons
    }


def photon_placements(modes: int, photons: int) -> set:
    """All occupation tuples by counting the ports of each multiset of photons.

    Reaches the wide bases (41 modes, 2 photons) whose filtered cartesian
    product, 3^41 tuples, brute_force_occupations cannot enumerate.
    """
    return {
        tuple(ports.count(j) for j in range(modes))
        for ports in itertools.combinations_with_replacement(range(modes), photons)
    }


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _dyadic(values) -> tuple[list[tuple[int, int]], int]:
    """Complex doubles as Gaussian integers over one power of two, exactly:
    ([(re, im), ...], e) with each value equal to (re + i im) / 2**e."""
    ratios = [part.as_integer_ratio() for v in values for part in (v.real, v.imag)]
    e = max(q.bit_length() - 1 for _, q in ratios)
    ints = [p << (e - q.bit_length() + 1) for p, q in ratios]
    return list(zip(ints[::2], ints[1::2])), e


def _times_linear(poly: dict, column) -> dict:
    """poly * sum_j column[j] adag_j, for a polynomial in the adag_j keyed by exponents."""
    out = {}
    for s, (x, y) in poly.items():
        for j, (a, b) in enumerate(column):
            if a or b:
                key = s[:j] + (s[j] + 1,) + s[j + 1:]
                re, im = out.get(key, (0, 0))
                out[key] = (re + x * a - y * b, im + x * b + y * a)
    return out


def exact_coefficients(unitary, state: QuantumState) -> tuple[list[tuple[int, int]], int]:
    """([(re, im), ...], D) with <s|S|in> = (re + i im) sqrt(prod s_j! / D) for each state s
    of the input's basis, in its order, exact for the doubles of U (U[j, i] takes input
    port i to output port j) and of the input's amplitudes. The root is positive, so the
    Gaussian integer re + i im carries each amplitude's exact phase.

    prod_i (sum_j U[j,i] adag_j)^(t_i) |0> is expanded over the monomials
    prod_j adag_j^(s_j) |0> = sqrt(prod s_j!) |s>, each entry of U an exact
    Gaussian integer over a power of two, so <s|S|t> = c_s sqrt(prod s_j! / prod t_i!)
    with c_s exact. The input's terms must share prod t_i!, which D holds with the
    squared powers of two.
    """
    u = np.asarray(unitary, dtype=complex)
    modes = u.shape[0]
    entries, e = _dyadic(u.T.ravel().tolist())
    columns = [entries[i * modes:(i + 1) * modes] for i in range(modes)]
    terms = [(occ, c) for occ, c in zip(state.basis.states, state.amplitudes.tolist()) if c]
    (weight,) = {math.prod(map(math.factorial, occ)) for occ, _ in terms}
    coeffs, f = _dyadic([c for _, c in terms])
    total = dict.fromkeys(state.basis.states, (0, 0))
    for (occ, _), (cr, ci) in zip(terms, coeffs):
        poly = {(0,) * modes: (1, 0)}
        for i, n in enumerate(occ):
            for _ in range(n):
                poly = _times_linear(poly, columns[i])
        for s, (x, y) in poly.items():
            re, im = total[s]
            total[s] = (re + x * cr - y * ci, im + x * ci + y * cr)
    return list(total.values()), weight << 2 * (e * state.basis.photons + f)


def exact_squared_magnitudes(unitary, state: QuantumState) -> list[Fraction]:
    """|<s|S|in>|^2 for each state s of the input's basis, in its order: from
    exact_coefficients, a rational with no root left in it."""
    coefficients, denominator = exact_coefficients(unitary, state)
    return [Fraction(math.prod(map(math.factorial, s)) * (re * re + im * im), denominator)
            for s, (re, im) in zip(state.basis.states, coefficients)]


@functools.cache
def _decimal_pi() -> Decimal:
    """pi to PHASE_DIGITS, the one precision it is called at (the `decimal` docs' recipe)."""
    getcontext().prec += 2
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    return +s


def _decimal_series(x: Decimal, first: int) -> Decimal:
    """cos x (first = 0) or sin x (first = 1) by its Taylor series, the `decimal` docs' recipes."""
    getcontext().prec += 2
    i, lasts, s, fact, num, sign = first, 0, x ** first, 1, x ** first, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    getcontext().prec -= 2
    return +s


PHASE_DIGITS = 40


@functools.cache
def _cos_sin_deg(degrees: Decimal) -> tuple[Decimal, Decimal]:
    with localcontext() as ctx:
        ctx.prec = PHASE_DIGITS
        x = degrees * _decimal_pi() / 180
        return _decimal_series(x, 0), _decimal_series(x, 1)


def sine_past(coefficient: tuple[int, int], degrees: Decimal) -> Decimal:
    """sin(arg c - beta) for the Gaussian integer c = re + i im and beta in degrees, to
    PHASE_DIGITS digits: Im(c e^(-i beta)) / |c|, positive where c lies less than 180
    degrees counterclockwise of the ray at beta. arg c lies within (lo, hi), hi - lo
    < 180, exactly where sine_past(c, lo) > 0 > sine_past(c, hi)."""
    re, im = coefficient
    with localcontext() as ctx:
        ctx.prec = PHASE_DIGITS
        cos, sin = _cos_sin_deg(degrees)
        return (im * cos - re * sin) / Decimal(re * re + im * im).sqrt()


def bunched_amplitudes(unitary, occupations) -> np.ndarray:
    """<N e_j|S|n> for every port j by the closed form sqrt(N! / prod n_i!) prod_i U[j,i]^n_i."""
    n = np.asarray(occupations, dtype=int)
    scale = math.sqrt(math.factorial(int(n.sum())) / math.prod(map(math.factorial, n.tolist())))
    return scale * np.prod(np.asarray(unitary) ** n, axis=1)


def fourier_unitary(modes: int) -> np.ndarray:
    """The m-port Fourier matrix, F[j, k] = exp(2 pi i j k / m) / sqrt(m)."""
    ports = np.arange(modes)
    return np.exp(2j * np.pi * np.outer(ports, ports) / modes) / math.sqrt(modes)


def fourier_hadamard_unitary() -> np.ndarray:
    """F (H + H): the 4-port Fourier matrix after a real 50/50 splitter on each
    port pair, H = [[1, 1], [1, -1]] / sqrt(2)."""
    hadamards = np.kron(np.eye(2), [[1, 1], [1, -1]]) / np.sqrt(2)
    return fourier_unitary(4) @ hadamards


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (z + z.conj().T)


def random_fock_input(modes: int, photons: int, rng: np.random.Generator) -> tuple:
    """A uniformly chosen way to drop `photons` photons into `modes` ports."""
    occ = [0] * modes
    for port in rng.integers(0, modes, size=photons):
        occ[port] += 1
    return tuple(occ)


def schur_generator(unitary) -> np.ndarray:
    """Hermitian A with exp(-iA) = U from a complex Schur form of U."""
    t, q = scipy.linalg.schur(np.asarray(unitary, dtype=complex), output="complex")
    a = q @ np.diag(-np.angle(np.diag(t))) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def fidelity_against(state: QuantumState, target: QuantumState) -> float:
    """Pure-state overlap |<target|state>|^2."""
    if state.basis != target.basis:
        raise ShapeError("states live on different bases")
    if not state.is_normalized() or not target.is_normalized():
        raise SpecError("fidelity is defined for normalized states")
    return float(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)


def ideal_noon_state(modes: int, photons: int) -> QuantumState:
    """The equal-superposition target (1/sqrt(K)) sum_j |N e_j>."""
    basis = enumerate_basis(modes, photons)
    amps = np.zeros(len(basis), dtype=complex)
    for occ in noon_components(basis):
        amps[basis.index_of(occ)] = 1 / math.sqrt(modes)
    return QuantumState(basis, amps)


def apply_phase_shifts(obj, phases_deg):
    """Apply per-port phase shifters: |..n_j..> gains exp(i n_j theta_j).

    Accepts a QuantumState or a TransitionTable and returns the same kind.
    """
    if not isinstance(obj, QuantumState):
        raise TypeError(f"cannot phase-shift {type(obj).__name__}")
    phases = np.asarray(phases_deg, dtype=float)
    if phases.shape != (obj.basis.modes,):
        raise ShapeError(f"need one phase per port, got shape {phases.shape}")
    factors = np.exp(1j * np.radians(np.array(obj.basis.states) @ phases))
    return replace(obj, amplitudes=obj.amplitudes * factors)


def _reference_scalar(value) -> str | None:
    if isinstance(value, RawNumber):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    return None


def _reference_is_simple(value) -> bool:
    if isinstance(value, dict):
        return all(_reference_scalar(v) is not None for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_reference_scalar(v) is not None for v in value)
    return False


def _reference_emit(value, level: int) -> str:
    token = _reference_scalar(value)
    if token is not None:
        return token
    pad = "  " * (level + 1)
    close = "  " * level
    if isinstance(value, dict):
        items = [f"{json.dumps(str(k))}: {_reference_emit(v, level + 1)}"
                 for k, v in value.items()]
        if _reference_is_simple(value):
            return "{" + ", ".join(items) + "}"
        return "{\n" + ",\n".join(pad + it for it in items) + "\n" + close + "}"
    if isinstance(value, (list, tuple)):
        items = [_reference_emit(v, level + 1) for v in value]
        if _reference_is_simple(value):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad + it for it in items) + "\n" + close + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_dumps(value) -> str:
    """serialize.dumps by a recursive emitter that re-derives each leaf's token.

    A container whose values are all leaves is written on one line, any other
    with one child per line; json.dumps quotes every key and string.
    """
    return _reference_emit(value, 0) + "\n"
