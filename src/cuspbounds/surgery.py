"""Per-slope analysis: length floors, exceptional-slope exclusion, volume.

For an adequate knot with crossing number c and diagram genus g, write
delta = (2g - 2)/c. Filling slopes p/q meet the meridian |q| times, and the
meridian bound 3 + (6g - 6)/c turns the cusp-area floor of 3.35 into a
slope-length floor

    length(p/q) > 3.35 |q| c / (3c + 6g - 6) = (3.35/3) |q| / (1 + delta).

Consequences, each decided in exact rational arithmetic:

* |q| > (360/67)(1 + delta)  forces length > 6, so the slope cannot be
  exceptional (360/67 = 18/3.35 = 5.373...);
* |q| > 6(1 + delta)         forces length > 2 pi;
* |q| >= 6(1 + delta)        makes the filled manifold hyperbolic with
  vol > vol(N) >= (1 - 36(1 + delta)^2 / q^2)^(3/2) vol, where vol is the
  knot complement's volume (supplied by the caller, never computed here);
* for Montesinos knots with reduced diagrams holding at least two positive
  and two negative tangles (delta <= 0), |q| >= 6 gives
  2 v8 t > vol(N) >= (1 - 36/q^2)^(3/2) (v8/4)(t - 9) with t the twist
  number and v8 the regular ideal octahedron volume.

Thresholds follow the printed forms: the 2-pi test is strict, the volume
window's precondition is non-strict, and an exact hit |q| = 6(1 + delta) is
flagged in the verdict. All of them need 1 + delta > 0 (real knots have
delta >= -2/3), so a smaller delta is refused with ``DeltaOutOfRange``.
A sweep writes 1 + delta = n/m once (``SlopeThresholds``) and decides each
slope in integers, |q| > k(1 + delta) as |q| m > k n; floats appear only in
the reported values, as correctly rounded quotients of exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadDiagramCounts,
    DeltaOutOfRange,
    InvalidSlope,
    NonFiniteVolume,
    NonPositiveVolume,
    SlopeTooSmall,
    TooFewTwistRegions,
)

Rational = int | Fraction


@dataclass(frozen=True)
class SurgeryConstants:
    """Numeric constants used by every threshold, with provenance.

    * ``cusp_area_floor``: every knot cusp has area at least 3.35
      (Cao-Meyerhoff).
    * ``exclusion_factor``: 18/3.35 as the exact rational 360/67.
    * ``six_threshold``: slopes longer than six are never exceptional.
    * ``v8``: volume of the regular ideal octahedron, 4 x Catalan's
      constant = 3.663862376708876 (stored to double precision).
    """

    cusp_area_floor: Fraction = Fraction(67, 20)
    exclusion_factor: Fraction = Fraction(360, 67)
    six_threshold: int = 6
    v8: float = 3.663862376708876


CONSTANTS = SurgeryConstants()


@dataclass(frozen=True)
class Slope:
    """A filling slope p/q in lowest terms; q = 0 (the meridian) is excluded."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q == 0:
            raise InvalidSlope("meridional slope q = 0 is excluded")
        if math.gcd(self.p, self.q) != 1:
            raise InvalidSlope(f"slope {self.p}/{self.q} is not in lowest terms")


def checked_volume(vol: float) -> float:
    """``vol`` as a float, refused unless it is finite and positive."""
    if not math.isfinite(vol):
        raise NonFiniteVolume(f"volume must be finite, got {vol}")
    if vol <= 0:
        raise NonPositiveVolume(f"volume must be positive, got {vol}")
    return float(vol)


class SlopeThresholds:
    """The slope tests for one 1 + delta = n/m (n, m > 0), decided on |q| in
    integers: |q| > k (1 + delta) becomes |q| m > k n. Floats are int true
    divisions, correctly rounded like ``float(Fraction)``."""

    def __init__(self, delta: Rational, floor_text: str | None = None) -> None:
        d = Fraction(delta)
        n, m = d.numerator + d.denominator, d.denominator  # the denominator is positive
        if n <= 0:
            raise DeltaOutOfRange(f"the slope bounds need 1 + delta > 0, got delta = {d}")
        self.m = m
        self.six_n = CONSTANTS.six_threshold * n
        self.n36 = self.six_n * self.six_n
        # The length floor 3.35 |q| / (3 (1 + delta)) is 67 |q| m / (60 n); it
        # exceeds six, so the slope is not exceptional, when 67 |q| m > 360 n.
        self.m67 = CONSTANTS.cusp_area_floor.numerator * m
        self.n60 = 3 * CONSTANTS.cusp_area_floor.denominator * n
        self.n360 = CONSTANTS.six_threshold * self.n60
        self.floor_text = floor_text

    def filter(self, q: int) -> tuple[bool, bool]:
        """(|q| > (360/67)(1 + delta): not exceptional, |q| > 6(1 + delta): length > 2 pi)."""
        return q * self.m67 > self.n360, q * self.m > self.six_n

    def length(self, q: int) -> float:
        """The slope-length floor 3.35 |q| / (3 (1 + delta))."""
        return q * self.m67 / self.n60

    def window(self, q: int, vol: float) -> tuple[float, bool]:
        """(vol (1 - 36 (1 + delta)^2 / q^2)^(3/2), whether |q| = 6(1 + delta));
        ``SlopeTooSmall`` when |q| < 6(1 + delta)."""
        qm = q * self.m
        if qm < self.six_n:
            floor = self.floor_text or f"6(1 + delta) = {Fraction(self.six_n, self.m)}"
            raise SlopeTooSmall(f"|q| = {q} below {floor}")
        qm2 = qm * qm
        return vol * ((qm2 - self.n36) / qm2) ** 1.5, qm == self.six_n


# The Montesinos window asks |q| >= 6: the thresholds at 1 + delta = 1.
MONTESINOS = SlopeThresholds(0, floor_text="6")


def counts_thresholds(c: int, g_t: int) -> SlopeThresholds:
    """The thresholds of delta = (2g - 2)/c, for c >= 1 crossings and diagram genus g >= 0."""
    if c < 1 or g_t < 0:
        raise BadDiagramCounts(f"need c >= 1 and g >= 0, got c={c}, g={g_t}")
    return SlopeThresholds(Fraction(2 * g_t - 2, c))


def slope_length_lower(c: int, g_t: int, slope: Slope) -> float:
    """Lower bound 3.35 |q| c / (3c + 6g - 6) on the slope's length; 1 + delta =
    (3c + 6g - 6) / 3c, so a denominator 3c + 6g - 6 <= 0 raises ``DeltaOutOfRange``."""
    return counts_thresholds(c, g_t).length(abs(slope.q))


def exceptional_filter(delta: Rational, slope: Slope) -> tuple[bool, bool]:
    """(cannot be exceptional, length certainly exceeds 2 pi), exactly.

    The threshold tests for adequate knots, where delta = (2g - 2)/c:
    strict inequalities on |q| against (360/67)(1 + delta) and 6(1 + delta).
    A delta with 1 + delta <= 0 is refused with ``DeltaOutOfRange``.
    """
    return SlopeThresholds(delta).filter(abs(slope.q))


def surgery_volume_window(delta: Rational, slope: Slope, vol: float) -> tuple[float, float, bool]:
    """Volume window (lower, upper, boundary_hit) for p/q filling when |q| >= 6(1 + delta).

    The filled manifold is hyperbolic and its volume lies in
    [vol * (1 - 36(1 + delta)^2 / q^2)^(3/2), vol), open above because
    volume strictly drops under filling; ``boundary_hit`` flags |q| = 6(1 + delta).
    """
    vol = checked_volume(vol)
    lower, hit = SlopeThresholds(delta).window(abs(slope.q), vol)
    return lower, vol, hit


def montesinos_scale(t: int) -> tuple[float, float]:
    """(max(0, (v8/4)(t - 9)), 2 v8 t): the window is [scale (1 - 36/q^2)^(3/2), upper)."""
    if t < 2:
        raise TooFewTwistRegions(f"need t >= 2 twist regions, got {t}")
    v8 = CONSTANTS.v8
    return max(0.0, (v8 / 4.0) * (t - 9)), 2.0 * v8 * t


def montesinos_window(t: int, slope: Slope) -> tuple[float, float, bool]:
    """Volume window (lower, upper, boundary_hit) for Montesinos knots from the
    twist number alone.

    Needs a reduced diagram with at least two positive and two negative
    tangles (hence delta <= 0) and |q| >= 6. The printed lower bound is
    negative for t <= 9 and is clamped to zero there.
    """
    scale, upper = montesinos_scale(t)
    lower, hit = MONTESINOS.window(abs(slope.q), scale)
    return lower, upper, hit
