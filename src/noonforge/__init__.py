"""noonforge: multiport beam-splitter simulation for multiphoton interference.

Models four-port splitters given as near-unitary scattering matrices, evolves
Fock states through them via matrix permanents, and post-selects NOON and
path-entangled components with success probabilities and fidelities.
"""

from .errors import (
    BranchCutError,
    CapacityError,
    InputError,
    MatrixFileError,
    NoonforgeError,
    NotHermitianError,
    NotUnitaryError,
    NumericError,
    ShapeError,
    SingularMatrixError,
    SpecError,
    ZeroProbabilityError,
)
from .evolve import (
    TransitionTable,
    evolution_operator,
    evolve_state,
    evolve_state_hamiltonian,
    fock_hamiltonian,
    permanent,
    transition_amplitude,
)
from .fock import (
    FockBasis,
    FockState,
    QuantumState,
    enumerate_basis,
    parse_occupations,
    state_from_spec,
)
from .noon import (
    NoonReport,
    extract_noon,
    noon_report,
    post_select,
    sweep_inputs,
)
from .unitary import (
    MatrixFile,
    PolarEntry,
    effective_hamiltonian,
    load_matrix,
    matrix_exp,
    save_matrix,
    unitarity_defect,
    unitarize,
    validate_symmetry,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCutError",
    "CapacityError",
    "FockBasis",
    "FockState",
    "InputError",
    "MatrixFile",
    "MatrixFileError",
    "NoonReport",
    "NoonforgeError",
    "NotHermitianError",
    "NotUnitaryError",
    "NumericError",
    "PolarEntry",
    "QuantumState",
    "ShapeError",
    "SingularMatrixError",
    "SpecError",
    "TransitionTable",
    "ZeroProbabilityError",
    "effective_hamiltonian",
    "enumerate_basis",
    "evolution_operator",
    "evolve_state",
    "evolve_state_hamiltonian",
    "extract_noon",
    "fock_hamiltonian",
    "load_matrix",
    "matrix_exp",
    "noon_report",
    "parse_occupations",
    "permanent",
    "post_select",
    "save_matrix",
    "state_from_spec",
    "sweep_inputs",
    "transition_amplitude",
    "unitarity_defect",
    "unitarize",
    "validate_symmetry",
]
