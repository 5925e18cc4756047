"""Per-slope analysis: length floors, exceptional-slope exclusion, volume.

Every threshold rests on one number, an upper bound M on the meridian
length. Filling slopes p/q meet the meridian |q| times, so the cusp-area
floor of 3.35 (Cao-Meyerhoff) turns M into a slope-length floor

    length(p/q) > 3.35 |q| / M = (3.35/3) |q| / (1 + delta),  1 + delta = M/3.

Any bound of ``bounds`` serves as M: the ``general`` bound 6(|chi1| +
|chi2|)/i of a surface pair, 3 for a pretzel, and for an adequate diagram
with c crossings and genus g the ``adequate`` bound 3 + (6g - 6)/c, so that
delta = (2g - 2)/c and the floor is 3.35 |q| c / (3c + 6g - 6).

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
A sweep writes 1 + delta = M/3 = n/m once (``SlopeThresholds``, keyed on
M) and decides each slope in integers, |q| > k(1 + delta) as |q| m > k n;
floats appear only in the reported values, as correctly rounded quotients of
exact integers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .bounds import SIX, adequate_bounds_from_counts
from .errors import (
    DeltaOutOfRange,
    InvalidSlope,
    NonFiniteVolume,
    NonPositiveVolume,
    SlopeTooSmall,
    TooFewTwistRegions,
    cut,
)

Rational = int | Fraction


# The constants of every threshold, with provenance; SIX, the 6-theorem's
# length, comes from ``bounds``.
# Every knot cusp has area at least 3.35 (Cao-Meyerhoff).
CUSP_AREA_FLOOR = Fraction(67, 20)
# Volume of the regular ideal octahedron, 4 x Catalan's constant (double precision).
V8 = 3.663862376708876


class Slope(namedtuple("Slope", "p q")):
    """A filling slope p/q in lowest terms; q = 0 (the meridian) is excluded."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, p: int, q: int) -> Slope:
        if q == 0:
            raise InvalidSlope("meridional slope q = 0 is excluded")
        if math.gcd(p, q) != 1:
            raise InvalidSlope(f"slope {cut(p)}/{cut(q)} is not in lowest terms")
        return tuple.__new__(cls, (p, q))


def checked_volume(vol: float) -> float:
    """``vol`` as a float, refused unless it is finite and positive."""
    if not math.isfinite(vol):
        raise NonFiniteVolume(f"volume must be finite, got {vol}")
    if vol <= 0:
        raise NonPositiveVolume(f"volume must be positive, got {vol}")
    return float(vol)


class SlopeThresholds:
    """The slope tests for a meridian bound M, with 1 + delta = M/3 = n/m
    (n, m > 0), decided on |q| in integers: |q| > k (1 + delta) becomes
    |q| m > k n. Floats are int true divisions, correctly rounded like
    ``float(Fraction)``."""

    def __init__(self, meridian: Rational) -> None:
        one = Fraction(meridian) / 3
        n, m = one.numerator, one.denominator  # the denominator is positive
        if n <= 0:
            raise DeltaOutOfRange(f"the slope bounds need 1 + delta > 0, got delta = {cut(one - 1)}")
        self.m = m
        self.six_n = SIX * n
        self.n36 = self.six_n * self.six_n
        # The length floor 3.35 |q| / (3 (1 + delta)) is 67 |q| m / (60 n); it
        # exceeds six, so the slope is not exceptional, when 67 |q| m > 360 n.
        self.m67 = CUSP_AREA_FLOOR.numerator * m
        self.n60 = 3 * CUSP_AREA_FLOOR.denominator * n
        self.n360 = SIX * self.n60

    def filter(self, q: int) -> tuple[bool, bool]:
        """(|q| > (360/67)(1 + delta): not exceptional, |q| > 6(1 + delta): length > 2 pi)."""
        return q * self.m67 > self.n360, q * self.m > self.six_n

    def length(self, q: int) -> float:
        """The slope-length floor 3.35 |q| / M = 3.35 |q| / (3 (1 + delta));
        ``InvalidSlope`` when it is too large for a float."""
        try:
            return q * self.m67 / self.n60
        except OverflowError:
            raise InvalidSlope(
                "|q| too large: its length floor 3.35 |q| / M overflows a float"
            ) from None

    def window(self, q: int, vol: float) -> tuple[float, bool]:
        """(vol (1 - 36 (1 + delta)^2 / q^2)^(3/2), whether |q| = 6(1 + delta));
        ``SlopeTooSmall`` when |q| < 6(1 + delta) = 2M."""
        qm = q * self.m
        if qm < self.six_n:
            raise SlopeTooSmall(f"|q| = {cut(q)} below 2M = {cut(Fraction(self.six_n, self.m))}")
        qm2 = qm * qm
        return vol * ((qm2 - self.n36) / qm2) ** 1.5, qm == self.six_n


# The Montesinos window asks |q| >= 6: the thresholds at M = 3, 1 + delta = 1.
MONTESINOS = SlopeThresholds(3)


def slope_length_lower(c: int, g_t: int, slope: Slope) -> float:
    """Lower bound 3.35 |q| / M = 3.35 |q| c / (3c + 6g - 6) on the slope's length,
    M the ``adequate`` meridian bound; M <= 0 raises ``DeltaOutOfRange``."""
    return SlopeThresholds(adequate_bounds_from_counts(c, g_t)["meridian"]).length(abs(slope.q))


def exceptional_filter(delta: Rational, slope: Slope) -> tuple[bool, bool]:
    """(cannot be exceptional, length certainly exceeds 2 pi), exactly.

    The threshold tests for adequate knots, where delta = (2g - 2)/c:
    strict inequalities on |q| against (360/67)(1 + delta) and 6(1 + delta).
    A delta with 1 + delta <= 0 is refused with ``DeltaOutOfRange``.
    """
    return SlopeThresholds(3 * (1 + Fraction(delta))).filter(abs(slope.q))


def surgery_volume_window(delta: Rational, slope: Slope, vol: float) -> tuple[float, float, bool]:
    """Volume window (lower, upper, boundary_hit) for p/q filling when |q| >= 6(1 + delta).

    The filled manifold is hyperbolic and its volume lies in
    [vol * (1 - 36(1 + delta)^2 / q^2)^(3/2), vol), open above because
    volume strictly drops under filling; ``boundary_hit`` flags |q| = 6(1 + delta).
    """
    vol = checked_volume(vol)
    lower, hit = SlopeThresholds(3 * (1 + Fraction(delta))).window(abs(slope.q), vol)
    return lower, vol, hit


def montesinos_scale(t: int) -> tuple[float, float]:
    """(max(0, (v8/4)(t - 9)), 2 v8 t): the window is [scale (1 - 36/q^2)^(3/2), upper).
    A t whose 2 v8 t has no finite float raises ``NonFiniteVolume``."""
    if t < 2:
        raise TooFewTwistRegions(f"need t >= 2 twist regions, got {cut(t)}")
    upper = 2.0 * V8 * t if t < 1e308 else math.inf  # float(t) overflows past 1.8e308
    if upper == math.inf:
        raise NonFiniteVolume(f"the window's upper end 2 v8 t overflows a float at t = {cut(t)}")
    return max(0.0, (V8 / 4.0) * (t - 9)), upper


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
