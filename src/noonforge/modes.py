"""Momentum-polarization mode labels and the wavelength-indexed subspaces.

Each subspace groups four (or two disjoint sets of four) modes at one working
wavelength into an independent four-port splitter. Wavelengths are metadata
only; a linear surface cannot convert between them, so subspaces at different
wavelengths never interact.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Literal

import numpy as np

from . import serialize
from .errors import ModeNotFoundError, ShapeError, SubspaceError
from .unitary import load_matrix

WAVELENGTH_MATCH_NM = 0.01


class Polarization(str, enum.Enum):
    L = "L"
    R = "R"


class Side(str, enum.Enum):
    GLASS = "d"
    AIR = "a"


@dataclass(frozen=True)
class Mode:
    """One light mode: circular polarization, propagation side, diffraction order."""

    polarization: Polarization
    side: Side
    diffraction_order: int

    def __str__(self) -> str:
        order = f"{self.diffraction_order:+d}" if self.diffraction_order else "0"
        return f"{self.polarization.value}:{self.side.value}:{order}"


def parse_mode(text: str) -> Mode:
    """Parse a "pol:side:order" mode string such as "L:d:-2"."""
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise SubspaceError(f"mode string must be pol:side:order, got {text!r}")
    pol, side, order = parts
    try:
        return Mode(Polarization(pol), Side(side), int(order))
    except ValueError:
        raise SubspaceError(f"invalid mode string {text!r}") from None


@dataclass(frozen=True, eq=False)
class Subspace:
    """A wavelength-indexed four-port splitter over labeled modes.

    `matrix` is the stored scattering matrix as loaded (``to_array()``): row
    i holds the output distribution of input_modes[i], and column j belongs to
    output_modes[j]. ``evolution_operator`` transposes it for Fock evolution.
    Subspaces declared without a matrix are valid registry entries but cannot
    drive an evolution.
    """

    label: str
    wavelength_nm: float
    dimension: int
    input_modes: tuple[Mode, ...]
    output_modes: tuple[Mode, ...]
    matrix: np.ndarray | None = None

    @property
    def executable(self) -> bool:
        return self.matrix is not None

    def all_modes(self) -> frozenset[Mode]:
        return frozenset(self.input_modes) | frozenset(self.output_modes)


def build_subspace(label: str, wavelength_nm: float, input_modes, output_modes,
                   matrix=None, dimension: int | None = None) -> Subspace:
    """Validate and assemble a Subspace.

    The dimension is inferred: identical input/output mode sets give a
    4-dimensional subspace, disjoint sets an 8-dimensional one. A declared
    `dimension` that contradicts the mode sets is rejected, as is any
    partial overlap.
    """
    inputs = tuple(input_modes)
    outputs = tuple(output_modes)
    if len(inputs) != 4 or len(outputs) != 4:
        raise SubspaceError(
            f"{label}: expected 4 input and 4 output modes, "
            f"got {len(inputs)}/{len(outputs)}")
    if len(set(inputs)) != 4:
        raise SubspaceError(f"{label}: duplicate input modes")
    if len(set(outputs)) != 4:
        raise SubspaceError(f"{label}: duplicate output modes")
    if (isinstance(wavelength_nm, bool)
            or not isinstance(wavelength_nm, (numbers.Real, Decimal))
            or not math.isfinite(wavelength_nm) or wavelength_nm <= 0):
        raise SubspaceError(
            f"{label}: wavelength must be a finite positive number, "
            f"got {wavelength_nm!r}")

    in_set, out_set = set(inputs), set(outputs)
    if in_set == out_set:
        inferred = 4
    elif not (in_set & out_set):
        inferred = 8
    else:
        raise SubspaceError(
            f"{label}: input and output mode sets must be identical or disjoint")
    if dimension is not None and dimension != inferred:
        raise SubspaceError(
            f"{label}: declared dimension {dimension} but the mode sets imply "
            f"{inferred}")

    if matrix is not None:
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (4, 4):
            raise ShapeError(f"{label}: matrix must be 4x4, got {matrix.shape}")

    return Subspace(label, float(wavelength_nm), inferred, inputs, outputs, matrix)


@dataclass(frozen=True)
class Conflict:
    subspace_a: str
    subspace_b: str
    shared_modes: tuple[Mode, ...]

    def __str__(self) -> str:
        shared = ", ".join(str(m) for m in self.shared_modes)
        return f"{self.subspace_a} / {self.subspace_b} share {shared}"


def check_independence(registry) -> list[Conflict]:
    """Report subspace pairs at the same wavelength that share a mode.

    Subspaces at distinct wavelengths are independent regardless of their
    modes. Pair reporting is symmetric and self-pairs are never reported.
    """
    subspaces = list(registry)
    conflicts = []
    for i, a in enumerate(subspaces):
        for b in subspaces[i + 1:]:
            if abs(a.wavelength_nm - b.wavelength_nm) > WAVELENGTH_MATCH_NM:
                continue
            shared = a.all_modes() & b.all_modes()
            if shared:
                conflicts.append(Conflict(
                    a.label, b.label, tuple(sorted(shared, key=str))))
    return conflicts


def port_of(subspace: Subspace, mode: Mode,
            direction: Literal["input", "output"]) -> int:
    """0-based port index of a mode in the subspace's input or output list."""
    if direction == "input":
        modes = subspace.input_modes
    elif direction == "output":
        modes = subspace.output_modes
    else:
        raise ValueError(f"direction must be 'input' or 'output', got {direction!r}")
    try:
        return modes.index(mode)
    except ValueError:
        raise ModeNotFoundError(
            f"mode {mode} is not an {direction} mode of subspace {subspace.label}"
        ) from None


def load_subspace(path) -> Subspace:
    """Load a subspace declaration file, resolving its matrix path if present."""
    path = Path(path)
    try:
        doc = serialize.loads(path.read_text())
    except OSError as exc:
        raise SubspaceError(f"cannot read subspace file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SubspaceError(f"{path}: subspace file must contain a JSON object")
    try:
        label = str(doc["label"])
        wavelength = doc["wavelength_nm"]
        inputs = [parse_mode(s) for s in doc["inputs"]]
        outputs = [parse_mode(s) for s in doc["outputs"]]
    except KeyError as exc:
        raise SubspaceError(f"{path}: missing field {exc}") from None
    matrix = None
    matrix_path = doc.get("matrix")
    if matrix_path is not None:
        matrix = load_matrix(path.parent / str(matrix_path)).to_array()
    return build_subspace(label, wavelength, inputs, outputs, matrix,
                          dimension=doc.get("dimension"))
