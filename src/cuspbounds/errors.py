"""Exception hierarchy.

Every error carries a machine-readable ``code`` (the class name) so the CLI
can report failures uniformly; messages are for humans.
"""

from __future__ import annotations


class CuspBoundsError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------- diagrams

class MalformedToken(CuspBoundsError):
    """Input text does not match the PD-code or braid grammar."""


class EmptyDiagram(CuspBoundsError):
    """A diagram with zero crossings; none of the bounds apply."""


class EdgeLabelUsedOtherThanTwice(CuspBoundsError):
    """Each edge label must occur in exactly two crossing slots."""


class MultiComponentLink(CuspBoundsError):
    """Strand tracing found more than one closed component."""


class NonPlanarDiagram(CuspBoundsError):
    """Rotation-system face count disagrees with the Euler formula."""


class FewerThanTwoStrands(CuspBoundsError):
    """Braid words need at least two strands."""


class BadGeneratorIndex(CuspBoundsError):
    """Braid generator index outside 1..n-1."""


class ZeroExponent(CuspBoundsError):
    """Braid syllable with exponent zero."""


class ClosureIsLink(CuspBoundsError):
    """Braid closure has more than one component."""


class TooManyCrossings(CuspBoundsError):
    """A braid word asks for more crossings or strands than ``diagram.MAX_CROSSINGS`` allows."""


# ------------------------------------------------------------ state machinery

class StateLengthMismatch(CuspBoundsError):
    """A state must be a string of exactly c letters A or B, one smoothing per
    crossing: a wrong length or any other character is refused."""


class NonIntegerGenus(CuspBoundsError):
    """2 - vA - vB + c came out odd; the diagram data is corrupted."""


class NonAlternatingBigon(CuspBoundsError):
    """A bigon whose strands do not alternate: the diagram is not reduced
    (a type-II move would cancel the two crossings)."""


# --------------------------------------------------------------- bounds

class NonPositiveBudget(CuspBoundsError):
    """Length budgets must be positive."""


class BudgetOutOfRange(CuspBoundsError):
    """A budget is reported as a float, so its float must be finite, and
    non-zero for a non-zero budget."""


class DegenerateSurfacePair(CuspBoundsError, ValueError):
    """Surface pairs need |chi| >= 1 on both surfaces and a positive boundary
    intersection number. Also a ``ValueError``, so that callers catching
    ``ValueError`` keep working."""


class NotAdequate(CuspBoundsError):
    """Bounds requested for a diagram that is not adequate."""


class MoebiusBand(CuspBoundsError):
    """A checkerboard surface with zero Euler characteristic; the diagram
    belongs to a (2, p) torus knot and the hyperbolic bounds do not apply."""


class TooFewTwistRegions(CuspBoundsError):
    """Twist-count bound is vacuous for this few twist regions."""


class NotOddOrTooSmall(CuspBoundsError):
    """Pretzel parameters must be odd integers greater than one."""


class NoApplicableBound(CuspBoundsError):
    """No bounding rule applies to the given input."""


# --------------------------------------------------------------- surgery

class BadDiagramCounts(CuspBoundsError, ValueError):
    """Counts out of range: bounds and slope sweeps from (c, g) need c >= 1
    crossings and genus g >= 0, and a twist number t needs 1 <= t <= c. Also
    a ``ValueError``, so that callers catching ``ValueError`` keep working."""


class InvalidSlope(CuspBoundsError, ValueError):
    """A slope p/q needs q != 0 and p, q coprime."""


class NotOneInputSource(CuspBoundsError, ValueError):
    """An analysis request needs exactly one of a PD code, a braid word, a
    pretzel triple and a surface pair."""


class NoSlopeSource(CuspBoundsError, ValueError):
    """A slope sweep needs delta, the counts (c, g), or a Montesinos twist number."""


class DeltaOutOfRange(CuspBoundsError):
    """The slope thresholds scale with 1 + delta, which must be positive; real
    knots have delta >= -2/3."""


class SlopeTooSmall(CuspBoundsError):
    """|q| below the threshold required by the volume estimate."""


class NonPositiveVolume(CuspBoundsError):
    """Volumes must be positive."""


class NonFiniteVolume(CuspBoundsError):
    """Volumes must be finite numbers, not NaN or infinity."""


# --------------------------------------------------------------- batch

class MissingHeader(CuspBoundsError):
    """Reference CSV lacks the required header row."""


class FileUnreadable(CuspBoundsError):
    """Reference CSV could not be opened or decoded."""
