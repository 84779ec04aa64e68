"""Exception hierarchy for sixsphere.

Every failure mode that callers may want to catch gets its own class; all of
them derive from SixSphereError so ``except SixSphereError`` catches the lot.
"""


class SixSphereError(Exception):
    """Base class for all sixsphere errors."""


class ZeroDivisor(SixSphereError):
    """Inversion of a zero (or numerically zero) element."""


class DegenerateInput(SixSphereError):
    """An input outside the domain of the operation (e.g. not a unit imaginary)."""


class FrameInvalid(SixSphereError):
    """A frame violated its orthonormality/admissibility invariants."""


class AutomorphismCheckFailed(SixSphereError):
    """Internal consistency failure: a constructed map is not an algebra map."""


class NotUnit(SixSphereError):
    """An element required to be a unit has zero norm."""


class InvalidStructure(SixSphereError):
    """A matrix fails the complex-structure invariants (orthogonal, squares to -1)."""


class RankError(SixSphereError):
    """A kernel/eigenspace has unexpected dimension."""


class IdenticalStructures(SixSphereError):
    """Two structures expected to be distinct coincide."""


class NoCommonLine(SixSphereError):
    """No common complex line found; must never fire for valid inputs."""


class DegenerateX(SixSphereError):
    """The block decomposition is degenerate (x lies in the reference complex line)."""


class NotImaginaryUnit(SixSphereError):
    """A point of the six-sphere must be a unit imaginary octonion."""


class KernelDimensionError(SixSphereError):
    """The companion kernel has dimension 0, or >1 with no vector passing verification."""


class VerificationFailed(SixSphereError):
    """A candidate solution fails its defining identity beyond tolerance."""


class NonConvergence(SixSphereError):
    """Too few Newton starts converged to trust the preimage enumeration."""


class UnstablePreimageCount(SixSphereError):
    """Preimage counts disagree between restarts at a single target value."""


class ConflictingEstimates(SixSphereError):
    """Independent degree trials disagree; hard failure."""


class NonGenericValue(SixSphereError):
    """A target value where the preimage set is positive-dimensional."""


class NonGenericInput(SixSphereError):
    """An input whose sixth power is real, so the fiber is positive-dimensional."""


class NotOdd(SixSphereError):
    """A map expected to be odd (f(-x) = -f(x)) is not."""


class NonUnitLeadingTerm(SixSphereError):
    """A graded series must start with 1 to be inverted."""


class NotSymmetric(SixSphereError):
    """A polynomial expected to be symmetric in two variables is not."""


class OutOfRange(SixSphereError):
    """An integer argument outside the documented range."""


class UnknownSuite(SixSphereError):
    """Unknown verification-suite name."""


class BadConfig(SixSphereError):
    """Invalid suite configuration."""


class TableError(SixSphereError):
    """A homotopy-group table file is malformed or lacks provenance."""
