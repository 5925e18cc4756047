"""Exception hierarchy.

Every error carries a machine-readable ``code`` (the class name) so the CLI
can report failures uniformly; messages are for humans.
"""

from __future__ import annotations

import math
from fractions import Fraction


def cut(value) -> str:
    """``str(value)`` cut to 20 characters, for echoing a user's number or text
    in a message; an int past the 4,300 digits str() converts is named instead."""
    try:
        return str(value)[:20]
    except ValueError:
        return "<over 4300 digits>"


def read_int(text: str) -> int:
    """``text`` as an int when it is decimal digits after an optional minus,
    with whitespace around it; int() alone would also read "+1" and "1_0".
    Otherwise the ``ValueError`` int() raises, echoing ``text`` cut."""
    if text.strip().removeprefix("-").isdecimal():
        return int(text)  # raises past 4,300 digits
    raise ValueError(f"invalid literal for int() with base 10: {cut(text)!r}")


def read_number(text: str) -> Fraction:
    """``text`` as an exact Fraction: an optional minus and decimal digits as
    ``read_int`` reads them, then an optional decimal point and exponent, or
    ``/`` and digits with whitespace around ``/``. Its float must be finite,
    and non-zero for a non-zero number. Otherwise a ``ValueError`` echoing ``text`` cut."""
    num, slash, den = text.partition("/")
    try:
        if "_" in text or num.lstrip()[:1] == "+":  # float() and Fraction() read "1_0" and "+2"
            raise ValueError
        if slash:  # Fraction() reads spaces around "/" only from Python 3.12 on
            value = Fraction(f"{num.rstrip()}/{den.lstrip()}")
            approx = float(value)  # OverflowError past the float range
        else:  # float first, so that 1e-999999999 never builds 10 ** 999999999
            approx = float(text)
            if not math.isfinite(approx):
                raise ValueError
            # a zero float reads the mantissa alone: zero, or a number that underflowed
            value = Fraction(text if approx else text.lower().partition("e")[0])
        if (approx == 0) != (value == 0):
            raise ValueError
    except (ArithmeticError, ValueError):
        raise ValueError(f"not a number with a finite float: {cut(text)!r}") from None
    return value


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
    """A PD code or braid word asks for more crossings (or strands) than
    ``diagram.MAX_CROSSINGS`` allows."""


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


class BoundOutOfRange(CuspBoundsError):
    """Bounds are reported as floats, so a surface pair's bounds need finite,
    non-zero floats."""


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
    """A slope p/q needs q != 0 and p, q coprime, each read by ``read_int``."""


class NotOneInputSource(CuspBoundsError, ValueError):
    """An analysis request needs exactly one of a PD code, a braid word, a
    pretzel triple and a surface pair."""


class NoSlopeSource(CuspBoundsError, ValueError):
    """A slope sweep needs exactly one of a meridian bound and a Montesinos twist number."""


class DeltaOutOfRange(CuspBoundsError):
    """The slope thresholds scale with 1 + delta, which must be positive; real
    knots have delta >= -2/3."""


class SlopeTooSmall(CuspBoundsError):
    """|q| below the threshold required by the volume estimate."""


class NonPositiveVolume(CuspBoundsError):
    """Volumes must be positive."""


class NonFiniteVolume(CuspBoundsError):
    """Volumes must be finite numbers, not NaN or infinity; so must the
    Montesinos window's upper end 2 v8 t."""


# --------------------------------------------------------------- batch

class MissingHeader(CuspBoundsError):
    """Reference CSV lacks the required header row."""


class FileUnreadable(CuspBoundsError):
    """Reference CSV, or a diagram on standard input, could not be read or decoded."""
