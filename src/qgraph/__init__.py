"""Numerical quantum graphs, edge correspondences, Fock truncations, and
Cuntz-Krieger relation systems over finite-dimensional C*-algebras."""

from .blocks import (
    DEFAULT_TOL,
    TIGHT_TOL,
    AlgebraElement,
    BlockStructure,
    DeltaState,
    TensorElement,
    adapted_unit,
    comultiply,
    gns_inner,
    modular_half,
    modular_power,
    sharp,
    validate_delta_form,
)
from .correspondence import (
    Correspondence,
    CorrVector,
    RecognitionResult,
    b_inner,
    build_edge_correspondence,
    compact_decomposition_residual,
    cp_correspondence,
    faithful_full_report,
    from_spanning,
    left_kernel,
    psi_tensor_module,
    recognize,
    trivial_correspondence,
)
from .errors import (
    BadNormalization,
    BudgetExceeded,
    HasQuantumSource,
    IndexOutOfRange,
    InvalidPermutation,
    MismatchedBase,
    NonPositiveWeight,
    NotClassical,
    NotCompletelyPositive,
    NotDeltaForm,
    NotGenerating,
    NotIdempotent,
    NotModularSelfAdjoint,
    NotQuantumAdjacency,
    NotState,
    NotUnitary,
    NotZeroOne,
    ParseError,
    QGraphError,
    ShapeMismatch,
    StateNotInvariant,
    WriteError,
)
from .families import (
    AutomorphismSpec,
    automorphism_graph,
    canonical_lqck_family,
    classical_graph,
    complete_graph,
    rank_one_graph,
    trivial_graph,
    trivial_structure_report,
)
from .fock import (
    FockTruncation,
    build_fock,
    canonical_fock_family,
    interior_tensor,
    lqck_fock_residuals,
    representation_residuals,
)
from .graphs import (
    LinearMapOnB,
    OperatorValuedMap,
    QuantumGraph,
    adjacency_from_indicator,
    adjoint_map,
    edge_indicator,
    homomorphism_check,
    indicator_properties,
    is_completely_positive,
    quantum_isomorphism_residual,
    quantum_sources_sinks,
    schur_residual,
)
from .relations import CKFamily, classical_reduction, lqck_residuals, qck_residuals

__version__ = "0.1.0"
