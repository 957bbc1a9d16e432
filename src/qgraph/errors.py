"""Exception hierarchy for qgraph.

Validation errors signal bad input data; tolerance-style failures carry the
offending residual or eigenvalue where that helps diagnosis.
"""


class QGraphError(Exception):
    """Base class for all qgraph errors."""


class ShapeMismatch(QGraphError):
    """Operands do not conform to a common block structure."""


class IndexOutOfRange(QGraphError):
    """Block or matrix-unit index outside the valid range."""


class NonPositiveWeight(QGraphError):
    """A state weight is zero or negative (faithfulness violated)."""


class NotState(QGraphError):
    """Weights do not sum to one."""


class NotDeltaForm(QGraphError):
    """Per-block inverse-weight sums disagree."""


class NotQuantumAdjacency(QGraphError):
    """Schur idempotency residual exceeds tolerance."""


class NotCompletelyPositive(QGraphError):
    """Choi matrix has a significantly negative eigenvalue."""


class NotIdempotent(QGraphError):
    """Candidate edge indicator fails xi # xi = xi."""


class NotModularSelfAdjoint(QGraphError):
    """(sigma_{i/2} x 1)(xi) is not self-adjoint within tolerance."""


class NotClassical(QGraphError):
    """Graph is not commutative with uniform weights."""


class NotZeroOne(QGraphError):
    """Adjacency matrix has entries outside {0, 1}."""


class BadNormalization(QGraphError):
    """Rank-one generator fails the per-block trace normalization."""


class NotUnitary(QGraphError):
    """Supplied matrix is not unitary within tolerance."""


class InvalidPermutation(QGraphError):
    """Block permutation maps a block to one of a different size."""


class StateNotInvariant(QGraphError):
    """State weights are not invariant under the block permutation."""


class MismatchedBase(QGraphError):
    """Correspondences are not over the same finite quantum space."""


class HasQuantumSource(QGraphError):
    """Graph has a quantum source; Fock construction hypothesis fails."""


class NotGenerating(QGraphError):
    """Vector does not generate its module under the bimodule action."""


class BudgetExceeded(QGraphError):
    """Requested construction exceeds the dense-tensor size guard."""


class ParseError(QGraphError):
    """Input file could not be parsed into a valid object."""


class WriteError(QGraphError):
    """Output file could not be written."""
