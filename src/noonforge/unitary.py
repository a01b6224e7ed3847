"""Complex matrix algebra for near-unitary scattering data.

Matrices are plain complex ndarrays. Scattering data arrives rounded to a
couple of decimals and whole degrees, so it is only approximately unitary;
``unitarize`` projects it onto the nearest exact unitary before any
multiphoton evolution. Phases are degrees at every external surface and
radians internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import serialize
from .errors import (BranchCutError, CapacityError, InputError, MatrixFileError,
                     NotHermitianError, NotUnitaryError, ShapeError, SingularMatrixError)

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-10
BRANCH_CUT_TOL = 1e-12


def _as_decimal(value) -> Decimal:
    """A Decimal, int or float as Decimal; anything else (bool, str, list) is refused."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(repr(float(value)))
    if isinstance(value, int) and not isinstance(value, bool):
        return Decimal(value)
    raise MatrixFileError(f"not a decimal value: {value!r}")


@dataclass(frozen=True)
class PolarEntry:
    """One scattering amplitude as magnitude and phase in degrees.

    Values are stored as Decimal so that file round-trips preserve the
    original decimal strings bit-exactly.
    """

    magnitude: Decimal
    phase_deg: Decimal

    def __post_init__(self):
        object.__setattr__(self, "magnitude", _as_decimal(self.magnitude))
        object.__setattr__(self, "phase_deg", _as_decimal(self.phase_deg))
        if not self.magnitude.is_finite() or not self.phase_deg.is_finite():
            raise MatrixFileError(f"entry values must be finite: {self}")
        if self.magnitude < 0:
            raise MatrixFileError(f"magnitude must be non-negative: {self}")

    @property
    def value(self) -> complex:
        return float(self.magnitude) * np.exp(1j * math.radians(float(self.phase_deg)))


def as_complex(values) -> np.ndarray:
    """`values` as a complex array; ShapeError where numpy cannot read them as one."""
    try:
        return np.asarray(values, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"expected an array of numbers: {exc}") from None


def require_square(matrix) -> np.ndarray:
    """`matrix` as a complex array; ShapeError unless it is square with finite entries.

    The one matrix check: every entry point that takes a matrix calls it, bar
    `transition_amplitude`, which runs once per amplitude and checks the shape alone.
    """
    m = as_complex(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix entries must be finite")
    return m


def _defect(matrix, norm) -> float:
    """`norm` of M^H M - I; NotUnitaryError where it overflows, which it does only for
    entries far above a unitary's bound of 1, and then without a warning."""
    m = require_square(matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = float(norm(m.conj().T @ m - np.eye(m.shape[0])))
    if not math.isfinite(defect):
        raise NotUnitaryError("matrix is not unitary (its unitarity defect overflows)")
    return defect


def unitarity_defect(matrix) -> float:
    """Frobenius norm of M^H M - I; zero iff M is exactly unitary."""
    return _defect(matrix, np.linalg.norm)


def max_unitarity_defect(matrix) -> float:
    """Max-entry norm of M^H M - I (the per-entry unitarity tolerance)."""
    return _defect(matrix, lambda d: np.max(np.abs(d), initial=0.0))


def require_unitary(matrix) -> np.ndarray:
    """`matrix` as a complex array; NotUnitaryError unless it is unitary.

    The tolerance is per entry: max |M^H M - I| <= UNITARY_TOL.
    """
    m = as_complex(matrix)
    defect = max_unitarity_defect(m)
    if defect > UNITARY_TOL:
        raise NotUnitaryError(
            f"matrix is not unitary (defect {defect:.3e}); call unitarize() first")
    return m


def require_hermitian(matrix, photons: int = 1) -> np.ndarray:
    """`matrix` as a complex array; NotHermitianError unless sum_mk A[m,k] adag_m a_k on
    `photons` photons (A itself on one, and on none) is Hermitian to HERMITIAN_TOL per entry.

    Its block (m, k) holds A[m,k] sqrt(t_m+1) sqrt(t_k+1) for t of n-1 photons, at most
    n where m = k and sqrt((n+2)//2) sqrt((n+1)//2) where not; an overflow is refused.
    """
    a = require_square(matrix)
    n = max(photons, 1)
    scale = np.full(a.shape, math.sqrt((n + 2) // 2) * math.sqrt((n + 1) // 2))
    np.fill_diagonal(scale, math.sqrt(n) * math.sqrt(n))
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.max(np.abs(a - a.conj().T) * scale, initial=0.0)
    if not defect <= HERMITIAN_TOL:
        raise NotHermitianError("matrix must be Hermitian")
    return a


def unitarize(matrix) -> np.ndarray:
    """Project onto the nearest unitary in Frobenius norm (SVD polar factor).

    For nonsingular M = W S V^H the factor W V^H is the unique Frobenius-nearest
    unitary, and it keeps per-entry deviations small enough that amplitudes
    computed from rounded scattering data stay reproducible.
    """
    m = require_square(matrix)
    w, s, vh = np.linalg.svd(m)
    if not s.size or s[0] == 0.0 or s[-1] < 1e-12 * s[0]:
        raise SingularMatrixError("matrix is singular; no unitary polar factor")
    return w @ vh


# Entry-equality pairs implied by a splitter with two independent processes:
# each process stamps one (magnitude, phase) pair into two positions.
_SUBSPACE_I_PAIRS = (
    ((0, 0), (1, 1)),
    ((0, 1), (1, 0)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
    ((2, 0), (3, 1)),
    ((2, 1), (3, 0)),
    ((2, 2), (3, 3)),
    ((2, 3), (3, 2)),
)


def _wrap_degrees(delta: float) -> float:
    return (delta + 180.0) % 360.0 - 180.0


def validate_symmetry(matrix, tol_mag: float, tol_phase_deg: float) -> list:
    """The shared-process entry pairs of a 4x4 splitter that do not match.

    Returns each pair of `_SUBSPACE_I_PAIRS`, in order, whose two entries
    differ by more than `tol_mag` in magnitude or `tol_phase_deg` in phase.
    Both tolerances must be finite and non-negative.
    """
    for name, tol in (("tol_mag", tol_mag), ("tol_phase_deg", tol_phase_deg)):
        if not (math.isfinite(tol) and tol >= 0):
            raise InputError(f"{name} must be finite and non-negative, got {tol}")
    m = require_square(matrix)
    if m.shape[0] != 4:
        raise ShapeError(f"shared-process pairs are defined for 4x4 matrices, got {m.shape}")
    mismatched = []
    for pair in _SUBSPACE_I_PAIRS:
        a, b = m[pair[0]], m[pair[1]]
        dmag = abs(abs(a) - abs(b))
        dphase = abs(_wrap_degrees(math.degrees(np.angle(a) - np.angle(b))))
        if dmag > tol_mag or dphase > tol_phase_deg:
            mismatched.append(pair)
    return mismatched


def effective_hamiltonian(matrix) -> np.ndarray:
    """Hermitian generator A with exp(-iA) = U, via the principal matrix log.

    Time and hbar are folded into A (t=1 convention): only the product enters
    the evolution operator. Refuses inputs with an eigenvalue at -1, where the
    principal branch is ambiguous.
    """
    u = require_unitary(matrix)
    # A unitary matrix is normal: eigenvectors of distinct eigenvalues are
    # orthogonal, so QR of the eigenvector matrix only orthonormalizes inside
    # each eigenspace (or tight cluster) and yields an exactly unitary
    # eigenbasis; the reconstructed generator is Hermitian to rounding.
    eigvals, vecs = np.linalg.eig(u)
    if np.any(np.abs(eigvals + 1.0) <= BRANCH_CUT_TOL):
        raise BranchCutError(
            "unitary has an eigenvalue at -1 (log branch cut); perturb the "
            "matrix slightly before extracting a generator")
    q, _ = np.linalg.qr(vecs)
    angles = np.angle(np.sum(q.conj() * (u @ q), axis=0))  # diag(q^H u q)
    a = q @ np.diag(-angles) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def matrix_exp(hamiltonian) -> np.ndarray:
    """exp(-iA) for Hermitian A, via eigendecomposition; CapacityError for a
    spectrum past the double range, which eigh returns as inf without a warning."""
    a = require_hermitian(hamiltonian)
    w, v = np.linalg.eigh(a)
    if not np.all(np.isfinite(w)):
        raise CapacityError(f"the coupling's spectrum [{w[0]:.4g}, {w[-1]:.4g}] overflows")
    return v @ np.diag(np.exp(-1j * w)) @ v.conj().T


@dataclass(frozen=True)
class MatrixFile:
    """A scattering matrix together with its file metadata.

    `entries` is the row-major grid of PolarEntry whose decimal strings
    round-trip bit-exactly through load/save.
    """

    dim: int
    label: str
    entries: tuple[PolarEntry, ...]
    meta: dict | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise MatrixFileError(f"dim must be at least 2, got {self.dim}")
        if len(self.entries) != self.dim * self.dim:
            raise MatrixFileError(
                f"expected {self.dim * self.dim} entries, got {len(self.entries)}")

    def to_array(self) -> np.ndarray:
        return np.array([e.value for e in self.entries], dtype=complex).reshape(
            self.dim, self.dim)

    @classmethod
    def from_array(cls, matrix, label: str, meta: dict | None = None) -> "MatrixFile":
        m = require_square(matrix)
        entries = tuple(
            PolarEntry(Decimal(repr(float(abs(v)))),
                       Decimal(repr(float(np.angle(v, deg=True)))))
            for v in m.ravel())
        return cls(m.shape[0], label, entries, meta)


def loads_matrix(text: str) -> MatrixFile:
    doc = serialize.loads(text)
    if not isinstance(doc, dict):
        raise MatrixFileError("matrix file must contain a JSON object")
    try:
        dim = doc["dim"]
        label = doc["label"]
        raw_entries = doc["entries"]
    except KeyError as exc:
        raise MatrixFileError(f"matrix file missing field {exc}") from None
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise MatrixFileError(f"dim must be an integer, got {dim!r}")
    if not isinstance(raw_entries, list):
        raise MatrixFileError("entries must be a list")
    entries = []
    for i, cell in enumerate(raw_entries):
        if not isinstance(cell, dict) or set(cell) != {"mag", "phase_deg"}:
            raise MatrixFileError(
                f"entry {i} must be an object with mag and phase_deg: {cell!r}")
        entries.append(PolarEntry(cell["mag"], cell["phase_deg"]))
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise MatrixFileError("meta must be an object")
    return MatrixFile(dim, str(label), tuple(entries), meta)


def load_matrix(path) -> MatrixFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixFileError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        return loads_matrix(text)
    except MatrixFileError as exc:
        raise MatrixFileError(f"{path}: {exc}") from None


def dumps_matrix(mf: MatrixFile) -> str:
    payload: dict = {
        "dim": mf.dim,
        "label": mf.label,
        "entries": [{"mag": e.magnitude, "phase_deg": e.phase_deg} for e in mf.entries],
    }
    if mf.meta is not None:
        payload["meta"] = {str(k): v for k, v in sorted(mf.meta.items())}
    return serialize.dumps(payload)


def save_matrix(path, mf: MatrixFile) -> None:
    path = Path(path)
    try:
        path.write_text(dumps_matrix(mf))
    except OSError as exc:
        raise MatrixFileError(f"cannot write matrix file {path}: {exc}") from exc
