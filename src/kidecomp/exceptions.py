"""Exception types shared across the package."""

__all__ = [
    "KidecompError",
    "DimensionMismatch",
    "NotHermitian",
    "NoConvergence",
    "ZeroOperator",
    "ZeroOffBlock",
    "NotNormalized",
    "ValidationError",
    "ParseError",
    "EmptyFamily",
    "BadWeights",
    "DegenerateSample",
    "NotInvariant",
    "StatesIdentical",
    "MaximalityCheckFailed",
    "KStateNotFixed",
    "NotPreserved",
    "HypothesisFailed",
    "NotBroadcastable",
]


class KidecompError(Exception):
    """Base class for every error raised by this package.

    `member` is the index of the family member that an error is about, when
    it is about one (the first failing member of a validated stack), else
    None.
    """

    def __init__(self, *args, member: int | None = None):
        super().__init__(*args)
        self.member = member


class DimensionMismatch(KidecompError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(KidecompError):
    """Matrix is further from Hermitian than the symmetry tolerance."""


class NoConvergence(KidecompError):
    """An iterative LAPACK routine failed to converge."""


class ZeroOperator(KidecompError):
    """Operator is numerically zero where a nonzero one is required."""


class ZeroOffBlock(KidecompError):
    """Off-diagonal block is numerically zero; no pairing exists."""


class NotNormalized(KidecompError):
    """Trace differs from 1 beyond the trace tolerance."""


class ValidationError(KidecompError):
    """Input violates a structural precondition (PSD, finiteness, schema)."""


class ParseError(KidecompError):
    """Input file is not syntactically valid."""


class EmptyFamily(KidecompError):
    """A state family must contain at least one state."""


class BadWeights(KidecompError):
    """Probability weights must be strictly positive and sum to 1."""


class DegenerateSample(KidecompError):
    """A random commutant sample gave classes that do not account for the commutant."""


class NotInvariant(KidecompError):
    """Subspace is not invariant under the given generators."""


class StatesIdentical(KidecompError):
    """Normalized states coincide; there is no difference to split on."""


class MaximalityCheckFailed(KidecompError):
    """Computed decomposition failed its own maximality certificate."""


class KStateNotFixed(KidecompError):
    """Per-block channel does not fix the block's redundant-factor state."""


class NotPreserved(KidecompError):
    """Channel does not preserve the operator it is required to fix."""


class HypothesisFailed(KidecompError):
    """A checked precondition of a conditional predicate does not hold."""


class NotBroadcastable(KidecompError):
    """Family has a block with a nontrivial information factor."""
