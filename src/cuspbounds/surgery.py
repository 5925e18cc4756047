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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    DegenerateDenominator,
    DeltaOutOfRange,
    NonFiniteVolume,
    NonPositiveVolume,
    SlopeTooSmall,
    TooFewTwistRegions,
)

Rational = Union[int, Fraction]


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
            raise ValueError("meridional slope q = 0 is excluded")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not in lowest terms")

    @property
    def meridian_intersections(self) -> int:
        return abs(self.q)


@dataclass(frozen=True)
class SlopeVerdict:
    p: int
    q: int
    length_lower: float | None = None
    non_exceptional: bool | None = None
    two_pi_exceeded: bool | None = None
    volume_window: tuple[float, float] | None = None
    rule: str = "filter"
    boundary_hit: bool = False

    def to_dict(self) -> dict:
        window = None
        if self.volume_window is not None:
            window = {
                "lower": float(f"{self.volume_window[0]:.12g}"),
                "upper": float(f"{self.volume_window[1]:.12g}"),
            }
        out = {
            "p": self.p,
            "q": self.q,
            "lengthLower": None if self.length_lower is None else float(f"{self.length_lower:.12g}"),
            "nonExceptional": self.non_exceptional,
            "twoPiExceeded": self.two_pi_exceeded,
            "volumeWindow": window,
            "rule": self.rule,
        }
        if self.boundary_hit:
            out["boundaryHit"] = True
        return out


def slope_length_lower(c: int, g_t: int, slope: Slope) -> float:
    """Lower bound 3.35 |q| c / (3c + 6g - 6) on the slope's length."""
    if c < 1 or g_t < 0:
        raise ValueError(f"need c >= 1 and g >= 0, got c={c}, g={g_t}")
    denom = 3 * c + 6 * g_t - 6
    if denom <= 0:
        raise DegenerateDenominator(f"3c + 6g - 6 = {denom} must be positive")
    exact = CONSTANTS.cusp_area_floor * slope.meridian_intersections * c / denom
    return float(exact)


def checked_delta(delta: Rational) -> Fraction:
    """``delta`` as an exact rational, refused unless 1 + delta > 0, which the
    length floor 3.35 |q| / (3 (1 + delta)) needs."""
    d = Fraction(delta)
    # 1 + d = (numerator + denominator) / denominator, and the denominator is
    # positive; integer arithmetic keeps the per-slope check cheap.
    if d.numerator + d.denominator <= 0:
        raise DeltaOutOfRange(f"the slope bounds need 1 + delta > 0, got delta = {d}")
    return d


def exceptional_filter(delta: Rational, slope: Slope) -> tuple[bool, bool]:
    """(cannot be exceptional, length certainly exceeds 2 pi), exactly.

    The bare threshold tests for adequate knots, where delta = (2g - 2)/c:
    strict inequalities on |q| against (360/67)(1 + delta) and 6(1 + delta).
    They certify nothing unless 1 + delta > 0; callers check that with
    :func:`checked_delta`.
    """
    d = Fraction(delta)
    q = slope.meridian_intersections
    non_exceptional = q > CONSTANTS.exclusion_factor * (1 + d)
    two_pi = q > CONSTANTS.six_threshold * (1 + d)
    return non_exceptional, two_pi


def surgery_volume_window(delta: Rational, slope: Slope, vol: float) -> SlopeVerdict:
    """Volume window for p/q filling when |q| >= 6(1 + delta).

    The filled manifold is hyperbolic and its volume lies in
    [vol * (1 - 36(1 + delta)^2 / q^2)^(3/2), vol), open above because
    volume strictly drops under filling.
    """
    if not math.isfinite(vol):
        raise NonFiniteVolume(f"volume must be finite, got {vol}")
    if vol <= 0:
        raise NonPositiveVolume(f"volume must be positive, got {vol}")
    d = checked_delta(delta)
    q = slope.meridian_intersections
    threshold = CONSTANTS.six_threshold * (1 + d)
    if q < threshold:
        raise SlopeTooSmall(f"|q| = {q} below 6(1 + delta) = {threshold}")
    factor = 1 - 36 * (1 + d) ** 2 / Fraction(q) ** 2
    lower = float(vol) * float(factor) ** 1.5
    # q >= 6(1+delta) > (360/67)(1+delta), so the filled manifold is
    # hyperbolic whenever the window applies at all.
    non_exceptional, two_pi = exceptional_filter(d, slope)
    return SlopeVerdict(
        p=slope.p,
        q=slope.q,
        length_lower=None,
        non_exceptional=non_exceptional,
        two_pi_exceeded=two_pi,
        volume_window=(lower, float(vol)),
        rule="surgery_window",
        boundary_hit=(q == threshold),
    )


def montesinos_window(t: int, slope: Slope) -> SlopeVerdict:
    """Volume window for Montesinos knots from the twist number alone.

    Needs a reduced diagram with at least two positive and two negative
    tangles (hence delta <= 0) and |q| >= 6. The printed lower bound is
    negative for t <= 9 and is clamped to zero there.
    """
    if t < 2:
        raise TooFewTwistRegions(f"need t >= 2 twist regions, got {t}")
    q = slope.meridian_intersections
    if q < CONSTANTS.six_threshold:
        raise SlopeTooSmall(f"|q| = {q} below 6")
    v8 = CONSTANTS.v8
    factor = float(1 - Fraction(36, q * q)) ** 1.5
    lower = max(0.0, (v8 / 4.0) * (t - 9) * factor)
    upper = 2.0 * v8 * t
    return SlopeVerdict(
        p=slope.p,
        q=slope.q,
        length_lower=None,
        non_exceptional=True,
        two_pi_exceeded=q > CONSTANTS.six_threshold,
        volume_window=(lower, upper),
        rule="montesinos_window",
        boundary_hit=(q == CONSTANTS.six_threshold),
    )


def slope_product_floor(
    area_lower: float, length_1: float, length_2: float, intersection: int
) -> bool:
    """Check length_1 * length_2 >= area_lower * intersection.

    Consistency test for asserted slope lengths against a cusp-area floor;
    vacuously true for disjoint slopes (intersection 0).
    """
    if length_1 <= 0 or length_2 <= 0 or area_lower <= 0 or intersection < 0:
        raise ValueError("lengths and area floor must be positive, intersection >= 0")
    return length_1 * length_2 >= area_lower * intersection
