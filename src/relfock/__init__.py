"""relfock: relational quantum states on truncated Fock spaces.

Systems are finite occupation-number spaces; subsystem relations are explicit
isometric embeddings whose image may be a proper subspace of the reference
space. The library computes reduced states whose trace can fall below one,
their eigen-decompositions (possible internal states plus an annihilation
outcome), Schmidt decompositions with an orthogonal residual, joint outcome
distributions over disjoint subsystems, charge-sector superselection checks,
and exact unitary dynamics, all at dense desk scale.
"""
__version__ = "0.1.0"

from .composition import (
    JointDistribution,
    SchmidtDecomposition,
    compose_embeddings,
    joint_distribution,
    regroup_embedding,
    schmidt_decompose,
)
from .dynamics import (
    HamiltonianSpec,
    HamiltonianTerm,
    Trajectory,
    build_hamiltonian,
    conversion_hamiltonian,
    evolve,
    evolve_trajectory,
    trace_deficit_trajectory,
)
from .errors import (
    ChargeCompatibilityError,
    EmbeddingValidationError,
    ScenarioError,
    SpaceMismatchError,
)
from .hilbert import (
    CHARGE_KINDS,
    Embedding,
    EmbeddingValidation,
    FockSpace,
    ModePartition,
    ModeSpec,
    StateVector,
    basis_state,
    bell_state,
    build_fock_space,
    charge_values,
    embedding_from_isometry,
    mode_partition_embedding,
    random_isometry_embedding,
    random_state_vector,
    state_from_amplitudes,
    tensor_product,
    validate_embedding,
)
from .relational import (
    DensityOperator,
    SpectralDecomposition,
    possible_internal_states,
    relational_state,
    sample_internal_states,
)
from .report import Report
from .runner import run_scenario
from .scenario import Scenario, Task, load_scenario
from .superselection import (
    SectorDecomposition,
    SuperselectionReport,
    check_superselection,
    is_charge_eigenstate,
    sector_decomposition,
)
from .tolerances import Tolerances

__all__ = [
    "__version__",
    "CHARGE_KINDS",
    "ChargeCompatibilityError",
    "DensityOperator",
    "Embedding",
    "EmbeddingValidation",
    "EmbeddingValidationError",
    "FockSpace",
    "HamiltonianSpec",
    "HamiltonianTerm",
    "JointDistribution",
    "ModePartition",
    "ModeSpec",
    "Report",
    "Scenario",
    "ScenarioError",
    "SchmidtDecomposition",
    "SectorDecomposition",
    "SpaceMismatchError",
    "SpectralDecomposition",
    "StateVector",
    "SuperselectionReport",
    "Task",
    "Tolerances",
    "Trajectory",
    "basis_state",
    "bell_state",
    "build_fock_space",
    "build_hamiltonian",
    "charge_values",
    "check_superselection",
    "compose_embeddings",
    "conversion_hamiltonian",
    "embedding_from_isometry",
    "evolve",
    "evolve_trajectory",
    "is_charge_eigenstate",
    "joint_distribution",
    "load_scenario",
    "mode_partition_embedding",
    "possible_internal_states",
    "random_isometry_embedding",
    "random_state_vector",
    "regroup_embedding",
    "relational_state",
    "run_scenario",
    "sample_internal_states",
    "schmidt_decompose",
    "sector_decomposition",
    "state_from_amplitudes",
    "tensor_product",
    "trace_deficit_trajectory",
    "validate_embedding",
]
