"""Occupation-number states and basis enumeration for n photons over m ports."""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import os
import re
import threading
from array import array
from dataclasses import dataclass

import numpy as np

from . import serialize, unitary
from .errors import CapacityError, InputError, ShapeError, SpecError

FockState = tuple[int, ...]

DEFAULT_STATE_CAP = 10_000_000
CAP_ENV_VAR = "NOONFORGE_CAP"
NEGLIGIBLE_AMPLITUDE = 1e-12
# Most bytes the shared bases may hold together, each counted with every table
# built from it (see _footprint), and most bytes evolve's Glynn tables may hold.
CACHE_BYTES = 2 ** 25

_TERM_RE = re.compile(
    r"^\s*(?:(?P<amp>[+-]?\d+(?:\.\d+)?)(?:@(?P<phase>[+-]?\d+(?:\.\d+)?))?\s*\*\s*)?"
    r"\|(?P<ket>[^>|]*)>\s*$"
)
_TERM_JOIN_RE = re.compile(r"(?<=>)\s*\+")


def state_cap() -> int:
    """Basis-size cap, overridable through the NOONFORGE_CAP environment variable."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError(f"{CAP_ENV_VAR} must be positive, got {cap}")
    return cap


def _whole(values, role: str) -> tuple[int, ...]:
    """`values` as non-negative ints (int or numpy integer, no bool), or ShapeError."""
    if not np.iterable(values):
        raise ShapeError(f"{role} must be a sequence of integers, got {values!r}")
    values = tuple(values)
    if [n for n in values if type(n) is not int or n < 0]:  # plain non-negative ints pass
        if bad := [n for n in values if type(n) is not int and not isinstance(n, np.integer)]:
            raise ShapeError(f"{role} must be integers, got {bad[0]!r}")
        if min(values := tuple(map(int, values))) < 0:
            raise ShapeError(f"{role} must be non-negative: {values}")
    return values


def _require_within_cap(modes: int, photons: int, size: int) -> None:
    limit = state_cap()
    if size > limit:
        raise CapacityError(f"basis of {size} states for {photons} photons over "
                            f"{modes} modes exceeds the cap of {limit}")


class FockBasis:
    """Complete, deterministically ordered n-photon basis over m ports.

    States are ordered lexicographically descending on the occupation tuple,
    so the bunched states |n,0,...,0>, ... appear at predictable positions.
    `occupations` holds them as a read-only matrix (a byte per entry up to
    255 photons); `states` (tuples), `labels` (ket texts) and `ladder` are
    built on first use and kept. A basis is read-only: enumerate_basis
    shares one instance per (modes, photons) across its callers.
    """

    def __init__(self, modes: int, photons: int):
        modes, photons = _whole((modes, photons), "mode and photon counts")
        if modes < 1:
            raise InputError(f"mode count must be at least 1, got {modes}")
        slots = photons + modes - 1
        size = math.comb(slots, modes - 1)
        _require_within_cap(modes, photons, size)
        # Stars and bars: n_i is the gap between bars i-1 and i of modes-1 bars among
        # photons+modes-1 slots, so descending occupations are descending bars.
        ends = np.zeros((size, modes + 1), np.min_scalar_type(slots + 1))
        bars = itertools.combinations(range(1, slots + 1), modes - 1)
        ends[:, 1:-1] = np.fromiter(itertools.chain.from_iterable(bars), ends.dtype,
                                    ends[:, 1:-1].size).reshape(size, -1)[::-1]
        ends[:, -1] = slots + 1
        occupations = (np.diff(ends) - 1).astype(np.min_scalar_type(photons))
        occupations.flags.writeable = False
        # s sits at sum_i fewer[i][r_i], r_i its photons after mode i: C(r+k-1, k) states,
        # k = m-1-i, agree with s before i and put more in i (Knuth, TAOCP 4A, 7.2.1.3).
        # 8 bytes a count; indexing still yields Python ints.
        fewer = tuple(array("q", [math.comb(r + k - 1, k) for r in range(photons + 1)])
                      for k in range(modes - 1, 0, -1))
        vars(self).update(modes=modes, photons=photons, occupations=occupations,
                          _fewer=fewer)

    def __setattr__(self, name, value):
        raise AttributeError(f"a FockBasis is shared and read-only; cannot set {name!r}")

    @functools.cached_property
    def states(self) -> tuple[FockState, ...]:
        return tuple(map(tuple, self.occupations.tolist()))

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Each state as ket text, "n1,n2,...", in basis order."""
        return tuple(map(format_occupations, self.states))

    @functools.cached_property
    def ladder(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """adag_j on each state t of one photon fewer, as read-only tables.

        raised[j, i] is the position of t + e_j, t the i-th state, and root[j, i]
        sqrt(t_j + 1); lowered[j, s] is the flat position in `raised` of s - e_j,
        or raised.size where s holds no photon in mode j.
        """
        # The states t + e_0 come first, in t's order. t + e_j has the photons of
        # t + e_0 after mode i, and one more where i < j.
        ahead = self.occupations[self.occupations[:, 0] > 0]
        rest = self.photons - np.cumsum(ahead[:, :-1], axis=1, dtype=np.intp)
        i = np.arange(self.modes - 1)
        fewer = np.array(self._fewer, np.intp).reshape(self.modes - 1, self.photons + 1)
        raised = np.stack([fewer[i, rest + (i < j)].sum(axis=1) for j in range(self.modes)])
        modes = np.arange(self.modes)[:, None]
        # cast first: a narrow integer dtype would root in float16
        root = np.sqrt(self.occupations[raised, modes].astype(float))
        lowered = np.full((self.modes, len(self)), raised.size)
        lowered[modes, raised] = np.arange(raised.size).reshape(raised.shape)
        raised.flags.writeable = root.flags.writeable = lowered.flags.writeable = False
        return raised, root, lowered

    def _position(self, occ: tuple) -> int | None:
        """Position of `occ`, or None unless its entries are whole and equal a state's."""
        try:
            ints = tuple(map(int, occ))
        except (TypeError, ValueError, OverflowError):
            return None
        rest, position = self.photons, 0
        if ints != occ or len(ints) != self.modes or min(ints) < 0 or sum(ints) != rest:
            return None
        for fewer, n in zip(self._fewer, ints):
            rest -= n
            position += fewer[rest]
        return position

    def index_of(self, state: FockState) -> int:
        """Position of `state`; KeyError if it is not in this basis."""
        if (position := self._position(occ := tuple(state))) is None:
            raise KeyError(occ)
        return position

    def __contains__(self, state) -> bool:
        return self._position(tuple(state)) is not None

    def __len__(self) -> int:
        return len(self.occupations)

    def __iter__(self):
        return iter(self.states)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FockBasis)
                and other.modes == self.modes and other.photons == self.photons)

    def __hash__(self) -> int:
        return hash((self.modes, self.photons))

    def __repr__(self) -> str:
        return f"FockBasis(modes={self.modes}, photons={self.photons}, size={len(self)})"


class BoundedCache(dict):
    """A dict that `admit` fills, dropping its oldest entries while `total`, the
    sum of their sizes, would pass `limit`; an entry alone over it is returned,
    not kept. Reads take no lock; all admissions, from any thread, share one.
    """

    _lock = threading.Lock()

    def __init__(self, limit: int):
        super().__init__()
        self.limit, self.total, self._sizes = limit, 0, {}

    def admit(self, key, value, size: int):
        """Hold `value` under `key` and return it, or return the value held there already."""
        with self._lock:
            if key in self or size > self.limit:
                return self.get(key, value)
            while self.total + size > self.limit:
                self.total -= self._sizes.pop(oldest := next(iter(self)))
                del self[oldest]
            self[key], self._sizes[key] = value, size
            self.total += size
            return value

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self.total, self._sizes = 0, {}


_basis_cache = BoundedCache(CACHE_BYTES)


def _footprint(modes: int, photons: int, size: int) -> int:
    """Bytes a basis holds with `states`, `labels` and `ladder` built, over-estimated.

    Per state: its occupation row, its tuple (an 80-byte header, 8 bytes an
    entry and an int object each past 256 photons), its ket text (64 bytes
    and a number and comma per mode) and its column of `lowered`; per state
    of one photon fewer, its columns of `raised` and `root`; 8 bytes for
    each of the (m - 1)(n + 1) counts `_position` reads and 80 for each of
    their m - 1 arrays; 4 KiB of headers.
    tracemalloc finds 240-420 B per state at 4-12 modes.
    """
    fewer = math.comb(photons + modes - 2, modes - 1) if photons else 0
    entry = np.min_scalar_type(photons).itemsize + 8 + (32 if photons > 256 else 0)
    text = 64 + modes * (len(str(photons)) + 1)
    per_state = 80 + modes * entry + text + 8 * modes
    return (4096 + (modes - 1) * (80 + 8 * (photons + 1)) + size * per_state
            + 16 * modes * fewer)


def enumerate_basis(modes: int, photons: int) -> FockBasis:
    """The complete n-photon, m-mode occupation basis, one shared instance per process.

    Both counts are checked (_whole) before the lookup, so a bool or float is a
    ShapeError, and every table built from a basis (`states`, `labels`, `ladder`)
    is built once. A hit still checks the basis against state_cap(). The cache
    holds at most CACHE_BYTES, each basis counted by its footprint (see BoundedCache).
    """
    key = _whole((modes, photons), "mode and photon counts")
    basis = _basis_cache.get(key)
    if basis is not None:
        _require_within_cap(*key, len(basis))
        return basis
    basis = FockBasis(*key)
    return _basis_cache.admit(key, basis, _footprint(*key, len(basis)))


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Complex superposition over a FockBasis, aligned with ``basis.states``."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = unitary.as_complex(self.amplitudes)
        if amps.shape != (len(self.basis),):
            raise SpecError(
                f"amplitude vector of length {amps.shape} does not match "
                f"basis of {len(self.basis)} states"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_occupations(cls, basis: FockBasis, occupations: FockState) -> "QuantumState":
        if (position := basis._position(_whole(occupations, "occupations"))) is None:
            raise ShapeError(f"occupations {occupations!r} are not a state of {basis!r}")
        return cls(basis, np.arange(len(basis)) == position)

    def _scaled(self) -> tuple[np.ndarray, float, int]:
        """The amplitudes times 2^-e, their largest real or imaginary part, and e.

        e brings that part into [0.5, 1), so the norm of the scaled
        amplitudes neither overflows nor underflows. The scaling is exact for
        parts in the normal range.
        """
        parts = self.amplitudes.view(np.float64)
        peak = float(np.max(np.abs(parts), initial=0.0))
        exponent = math.frexp(peak)[1]
        return np.ldexp(parts, -exponent).view(complex), peak, exponent

    def norm(self) -> float:
        """The 2-norm of the amplitudes, computed on their scaled copy.

        A norm within the float range comes out finite and nonzero whatever
        the amplitudes' magnitude, and one beyond it is inf without a
        warning. In the normal range the result equals np.linalg.norm bit
        for bit.
        """
        scaled, _, exponent = self._scaled()
        try:
            return math.ldexp(float(np.linalg.norm(scaled)), exponent)
        except OverflowError:
            return math.inf

    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= 1e-9

    def normalized(self) -> "QuantumState":
        """This state over its norm, for any finite nonzero amplitudes.

        The quotient is taken on the scaled amplitudes, so in the normal range
        the result equals the plain quotient bit for bit.
        """
        scaled, peak, _ = self._scaled()
        if not 0.0 < peak < math.inf:
            raise ValueError("cannot normalize a zero or non-finite state")
        return QuantumState(self.basis, scaled / np.linalg.norm(scaled))

    def terms(self, threshold: float = 0.0) -> list[tuple[FockState, np.complex128]]:
        """The (occupations, amplitude) pairs whose np.abs exceeds `threshold`, in basis
        order; each amplitude is the numpy scalar `amplitudes[i]` reads."""
        states, amps = self.basis.states, self.amplitudes
        return [(states[i], amps[i]) for i in np.flatnonzero(np.abs(amps) > threshold).tolist()]

    def canonical(self) -> "QuantumState":
        """Rotate the global phase so the first non-negligible amplitude is real-positive."""
        for _, amp in self.terms(NEGLIGIBLE_AMPLITUDE)[:1]:
            return QuantumState(self.basis, self.amplitudes * (abs(amp) / amp))
        return self

    def amplitude(self, occupations: FockState) -> complex:
        return complex(self.amplitudes[self.basis.index_of(occupations)])


def format_occupations(occupations: FockState) -> str:
    return ",".join(map(str, occupations))


def phases_deg(amplitudes, magnitudes) -> np.ndarray:
    """Each amplitude's printed phase in degrees, given |a| as the caller prints it.

    Rounding noise never picks a phase: it is 0 where |a| <= NEGLIGIBLE_AMPLITUDE,
    and 0 or 180, never -180, where |Im a| <= NEGLIGIBLE_AMPLITUDE |a|. Any other
    phase is np.angle's, bit for bit.
    """
    amplitudes, magnitudes = np.asarray(amplitudes, dtype=complex), np.asarray(magnitudes)
    noise = np.abs(amplitudes.imag) <= NEGLIGIBLE_AMPLITUDE * magnitudes
    degrees = np.arctan2(np.where(noise, 0.0, amplitudes.imag), amplitudes.real) * (180 / np.pi)
    degrees[magnitudes <= NEGLIGIBLE_AMPLITUDE] = 0.0
    return degrees


def printed_degrees(degrees, places: int) -> list[float]:
    """Angles in degrees as printed to `places` decimals: one that rounds to -180 there
    prints as 180, the same angle, so no printed phase or shifter setting shows -180."""
    degrees = np.asarray(degrees, dtype=float)
    printed = degrees.tolist()
    # round(x, places) rounds as the printed text does; no angle above -179 can reach -180
    for i in np.flatnonzero(degrees < -179).tolist():
        if round(printed[i], places) == -180:
            printed[i] = 180.0
    return printed


def printed_phases(amplitudes, magnitudes, places: int) -> list[float]:
    """phases_deg as printed to `places` decimals, through printed_degrees."""
    return printed_degrees(phases_deg(amplitudes, magnitudes), places)


def amplitude_rows(labels, amplitudes) -> list[dict]:
    """JSON rows for (ket text, amplitude) pairs: ket, magnitude and printed phase to 6
    decimal places. Magnitudes take the scalar abs (hypot), whose bits np.abs does not match."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    magnitudes = list(map(abs, amplitudes.tolist()))
    phases = printed_phases(amplitudes, magnitudes, 6)
    return [{"state": label, "mag": mag, "phase_deg": phase}
            for label, mag, phase in zip(labels, serialize.fixed_column(magnitudes, 6),
                                         serialize.fixed_column(phases, 6))]


def amplitude_lines(components) -> str:
    """Text rows for (occupations, amplitude) pairs: |a| to 4 decimals, phase in whole degrees."""
    magnitudes = [abs(amp) for _, amp in components]
    degrees = printed_phases([amp for _, amp in components], magnitudes, 0)
    return "".join(f"  {mag:.4f} @ {round(deg):+4d} deg  |{format_occupations(occ)}>\n"
                   for (occ, _), mag, deg in zip(components, magnitudes, degrees))


def rank_descending(items, scores) -> list:
    """`items` ordered by descending score, exact ties kept in the given order.

    A score within NEGLIGIBLE_AMPLITUDE of the largest score in its tied group
    ranks equal to it, so rounding noise in the last bits of a computed score
    (say of two amplitudes a symmetry makes equal) cannot reorder the listing.
    """
    groups, top = [], None
    for i in sorted(range(len(items)), key=lambda i: -scores[i]):
        if top is None or top - scores[i] > NEGLIGIBLE_AMPLITUDE:
            top = scores[i]
            groups.append([])
        groups[-1].append(i)
    return [items[i] for group in groups for i in sorted(group)]


def parse_occupations(text: str) -> FockState:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) < 2 or any(not p for p in parts):
        raise SpecError(f"ket must list at least two comma-separated occupations: {text!r}")
    try:
        occ = tuple(int(p) for p in parts)
    except ValueError:
        raise SpecError(f"occupations must be integers: {text!r}") from None
    if any(n < 0 for n in occ):
        raise SpecError(f"occupations must be non-negative: {text!r}")
    return occ


def parse_spec(spec: str) -> dict[FockState, complex]:
    """Parse a ket spec into its kets and their summed coefficients, unnormalized.

    Grammar: a bare occupation list ``"0,0,1,1"``, or a superposition of
    terms ``[amp[@phase_deg]*]|KET>`` joined by ``+``, e.g.
    ``"0.7*|2,0> + 0.7@90*|0,2>"``. Only a ``+`` after a closing ``>`` joins
    terms, so amplitudes and phases may carry an explicit sign. Kets keep
    the order they first appear in. SpecError if the terms mix mode or
    photon numbers, if the terms on one ket sum to a non-finite coefficient
    or if they cancel to the zero state; no basis is built.
    """
    text = spec.strip()
    if not text:
        raise SpecError("empty state spec")
    if "|" not in text:
        return {parse_occupations(text): 1 + 0j}

    terms = []
    for chunk in _TERM_JOIN_RE.split(text):
        m = _TERM_RE.match(chunk)
        if m is None:
            raise SpecError(f"malformed term {chunk!r} in spec {spec!r}")
        amp = float(m.group("amp")) if m.group("amp") else 1.0
        phase_deg = float(m.group("phase")) if m.group("phase") else 0.0
        if not (math.isfinite(amp) and math.isfinite(phase_deg)):
            raise SpecError(f"term {chunk.strip()!r} has a non-finite amplitude or phase")
        occ = parse_occupations(m.group("ket"))
        # a Python complex: a sum past the float range gives inf, not a numpy warning
        terms.append((complex(amp * np.exp(1j * np.deg2rad(phase_deg))), occ))

    modes = len(terms[0][1])
    photons = sum(terms[0][1])
    kets: dict[FockState, complex] = {}
    for coeff, occ in terms:
        if len(occ) != modes:
            raise SpecError(f"terms mix {modes} and {len(occ)} modes in spec {spec!r}")
        if sum(occ) != photons:
            raise SpecError(
                f"terms mix photon numbers {photons} and {sum(occ)} in spec {spec!r}"
            )
        kets[occ] = kets.get(occ, 0j) + coeff
    for occ, coeff in kets.items():
        if not cmath.isfinite(coeff):
            raise SpecError(f"the terms on |{format_occupations(occ)}> sum to a "
                            f"non-finite coefficient in spec {spec!r}")
    if not any(kets.values()):
        raise SpecError(f"terms cancel to the zero state in spec {spec!r}")
    return kets


def state_from_kets(kets: dict[FockState, complex]) -> tuple[FockBasis, QuantumState]:
    """The normalized state over the basis of `kets`, as parse_spec returns them."""
    first = next(iter(kets))
    basis = enumerate_basis(len(first), sum(first))
    amps = np.zeros(len(basis), dtype=complex)
    for occ, coeff in kets.items():
        amps[basis.index_of(occ)] = coeff
    return basis, QuantumState(basis, amps).normalized()


def state_from_spec(spec: str) -> tuple[FockBasis, QuantumState]:
    """Parse a ket spec (see parse_spec) into a normalized state."""
    return state_from_kets(parse_spec(spec))


def state_to_spec(state: QuantumState) -> str:
    """Render a state in the ket-spec grammar (single kets stay bare lists)."""
    held = state.terms(NEGLIGIBLE_AMPLITUDE)
    labels, amps = [format_occupations(occ) for occ, _ in held], [amp for _, amp in held]
    mags = list(map(abs, amps))
    if len(labels) == 1 and abs(mags[0] - 1.0) <= NEGLIGIBLE_AMPLITUDE:
        return labels[0]
    # a phase printed as 0.00 or -0.00 is left out
    phases = ["" if round(deg, 2) == 0 else f"@{deg:.2f}" for deg in printed_phases(amps, mags, 2)]
    return " + ".join(f"{mag:.6f}{phase}*|{label}>"
                      for label, mag, phase in zip(labels, mags, phases))
