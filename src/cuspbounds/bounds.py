"""Upper bounds on meridian length, shortest lambda-curve, and cusp area.

Bounding rules, each tagged with a rule id in reports:

* ``general``    -- from a pair of essential spanning surfaces with Euler
  characteristics chi1, chi2 and boundary intersection number i:
  meridian <= 6(|chi1| + |chi2|)/i, lambda <= 3(|chi1| + |chi2|),
  area <= 18(|chi1| + |chi2|)^2 / i.
* ``adequate``   -- for adequate diagrams the checkerboard pair has
  |chi_A| + |chi_B| = c + 2g - 2 and boundary intersection 2c, giving
  meridian <= 3 + (6g - 6)/c, lambda <= 3c + 6g - 6,
  area <= 9c (1 + (2g - 2)/c)^2.
* ``twist``      -- meridian <= 3 + 3t/c - 6/c from the twist number t.
* ``pretzel``    -- the three-strip pretzel P(a, -b, -c), a, b, c odd > 1:
  the all-A surface (chi = 1 - b - c, boundary slope -2b - 2c) against the
  genus-minimizing spanning surface (chi = -1, slope 0) gives meridian <= 3.
* ``twist_area`` -- area <= 10 sqrt(3) (t - 1), useful when t << c.

All comparisons are exact rational arithmetic; floats only appear when a
value is inherently irrational (the twist-area rule) or in serialized
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .diagram import BraidWord
from .errors import (
    ClosureIsLink,
    DegenerateSurfacePair,
    DegenerateTorusDiagram,
    MoebiusBand,
    NoApplicableBound,
    NonPositiveBudget,
    NotAdequate,
    NotOddOrTooSmall,
    TooFewTwistRegions,
)
from .states import DiagramInvariants

Numeric = Union[int, float, Fraction]

RULE_GENERAL = "general"
RULE_ADEQUATE = "adequate"
RULE_TWIST = "twist"
RULE_PRETZEL = "pretzel"
RULE_TWIST_AREA = "twist_area"

# Ceiling against which meridian bounds are sanity-checked: exceptional
# slopes have length at most six, and meridians strictly less.
SIX_THEOREM_CEILING = 6


def _as_fraction(x: Numeric) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def sig12(x: Numeric) -> float:
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class SurfacePairData:
    """|chi| of two essential spanning surfaces and their boundary
    intersection number; all three must be positive."""

    abs_chi_1: int
    abs_chi_2: int
    intersection: int

    def __post_init__(self) -> None:
        if self.abs_chi_1 < 1 or self.abs_chi_2 < 1:
            raise DegenerateSurfacePair("surfaces with chi = 0 carry no length bound")
        if self.intersection < 1:
            raise DegenerateSurfacePair("boundary intersection number must be positive")

    @property
    def chi_sum(self) -> int:
        return self.abs_chi_1 + self.abs_chi_2


@dataclass(frozen=True)
class BoundValue:
    value: Numeric
    rule: str

    def to_dict(self) -> dict:
        return {"value": sig12(self.value), "rule": self.rule}


@dataclass(frozen=True)
class BoundCandidate:
    quantity: str  # "meridian" | "lambda" | "cuspArea"
    value: Numeric
    rule: str

    def to_dict(self) -> dict:
        return {"quantity": self.quantity, "value": sig12(self.value), "rule": self.rule}


@dataclass(frozen=True)
class BoundsReport:
    """Per-quantity upper bounds with the rule that produced each."""

    meridian_upper: BoundValue | None = None
    lambda_upper: BoundValue | None = None
    cusp_area_upper: BoundValue | None = None
    candidates: tuple[BoundCandidate, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def consistent_with_six_theorem(self) -> bool:
        """Whether the meridian bound actually beats the universal six."""
        if self.meridian_upper is None:
            return False
        return _as_fraction(self.meridian_upper.value) < SIX_THEOREM_CEILING

    def to_dict(self) -> dict:
        return {
            "meridian": self.meridian_upper.to_dict() if self.meridian_upper else None,
            "lambda": self.lambda_upper.to_dict() if self.lambda_upper else None,
            "cuspArea": self.cusp_area_upper.to_dict() if self.cusp_area_upper else None,
            "candidates": [cand.to_dict() for cand in self.candidates],
            "sixTheoremConsistent": self.consistent_with_six_theorem,
        }


def _own_candidates(report: BoundsReport) -> tuple[BoundCandidate, ...]:
    out = []
    for quantity, bv in (
        ("meridian", report.meridian_upper),
        ("lambda", report.lambda_upper),
        ("cuspArea", report.cusp_area_upper),
    ):
        if bv is not None:
            out.append(BoundCandidate(quantity, bv.value, bv.rule))
    return tuple(out)


def general_bounds(pair: SurfacePairData) -> BoundsReport:
    """Bounds from an arbitrary essential spanning-surface pair."""
    s = Fraction(pair.chi_sum)
    i = Fraction(pair.intersection)
    report = BoundsReport(
        meridian_upper=BoundValue(6 * s / i, RULE_GENERAL),
        lambda_upper=BoundValue(3 * s, RULE_GENERAL),
        cusp_area_upper=BoundValue(18 * s * s / i, RULE_GENERAL),
        notes=("lambda bound is strict in derivation, reported non-strict as stated",),
    )
    return _with_own_candidates(report)


def _with_own_candidates(report: BoundsReport) -> BoundsReport:
    return BoundsReport(
        meridian_upper=report.meridian_upper,
        lambda_upper=report.lambda_upper,
        cusp_area_upper=report.cusp_area_upper,
        candidates=_own_candidates(report),
        notes=report.notes,
    )


def criterion_check(pair: SurfacePairData, budget: Numeric) -> bool:
    """Whether |chi1| + |chi2| <= (budget/6) * i, exactly.

    Equivalent to the general meridian bound being at most ``budget``; the
    boundary case (equality) counts as satisfied.
    """
    b = _as_fraction(budget)
    if b <= 0:
        raise NonPositiveBudget(f"budget must be positive, got {budget}")
    return Fraction(pair.chi_sum) <= b / 6 * pair.intersection


def adequate_bounds_from_counts(c: int, g_t: int) -> BoundsReport:
    """The adequate-diagram formulas as pure arithmetic in (c, g)."""
    if c < 1:
        raise ValueError(f"crossing count must be positive, got {c}")
    if g_t < 0:
        raise ValueError(f"genus must be non-negative, got {g_t}")
    cf = Fraction(c)
    meridian = 3 + Fraction(6 * g_t - 6, c)
    lam = Fraction(3 * c + 6 * g_t - 6)
    area = 9 * cf * (1 + Fraction(2 * g_t - 2, c)) ** 2
    report = BoundsReport(
        meridian_upper=BoundValue(meridian, RULE_ADEQUATE),
        lambda_upper=BoundValue(lam, RULE_ADEQUATE),
        cusp_area_upper=BoundValue(area, RULE_ADEQUATE),
    )
    return _with_own_candidates(report)


def adequate_bounds(inv: DiagramInvariants) -> BoundsReport:
    """Bounds for an adequate diagram's checkerboard surface pair."""
    if not inv.adequate:
        raise NotAdequate("diagram is not adequate on both sides")
    if inv.chi_a == 0 or inv.chi_b == 0:
        raise MoebiusBand(
            "a checkerboard surface is a Moebius band; (2, p) torus diagram, not hyperbolic"
        )
    return adequate_bounds_from_counts(inv.c, inv.g_t_diagram)


def twist_bound(c: int, t: int, *, torus_degenerate: bool = False) -> Fraction:
    """Meridian bound 3 + 3t/c - 6/c from crossing and twist counts."""
    if torus_degenerate:
        raise DegenerateTorusDiagram("all-bigon cycle: (2, p) torus diagram, not hyperbolic")
    if c < 1 or not 1 <= t <= c:
        raise ValueError(f"need 1 <= t <= c, got t={t}, c={c}")
    return 3 + Fraction(3 * t - 6, c)


def twist_area_bound(t: int) -> float:
    """Cusp-area bound 10 sqrt(3) (t - 1) from the twist number alone."""
    if t <= 1:
        raise TooFewTwistRegions(f"area bound is vacuous for t = {t}")
    return 10.0 * math.sqrt(3.0) * (t - 1)


@dataclass(frozen=True)
class PretzelParams:
    """Parameters of the three-strip pretzel P(a, -b, -c)."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for value in (self.a, self.b, self.c):
            if value <= 1 or value % 2 == 0:
                raise NotOddOrTooSmall(f"pretzel parameters must be odd and > 1: {value}")


def pretzel_bounds(params: PretzelParams) -> tuple[SurfacePairData, BoundsReport]:
    """Surface pair and bounds for P(a, -b, -c).

    The boundary slopes of the two surfaces differ by 2b + 2c, which is
    their geometric intersection number; the meridian bound collapses to
    exactly 3 for every valid parameter triple.
    """
    b, c = params.b, params.c
    pair = SurfacePairData(b + c - 1, 1, 2 * b + 2 * c)
    base = general_bounds(pair)
    report = BoundsReport(
        meridian_upper=BoundValue(base.meridian_upper.value, RULE_PRETZEL),
        lambda_upper=BoundValue(base.lambda_upper.value, RULE_PRETZEL),
        cusp_area_upper=BoundValue(base.cusp_area_upper.value, RULE_PRETZEL),
    )
    return pair, _with_own_candidates(report)


class BraidVerdict(str, Enum):
    """What a closed-braid word guarantees about its knot."""

    MERIDIAN_UNDER_FOUR = "MeridianUnderFour"
    ADEQUATE_ONLY = "AdequateOnly"
    INAPPLICABLE = "Inapplicable"


def braid_criterion(word: BraidWord, prime_asserted: bool = False) -> BraidVerdict:
    """Classify a braid word by the exponent conditions on its syllables.

    Same-signed exponents, all of magnitude >= 2, make the closure an
    adequate diagram. If additionally every magnitude is >= 3, the word uses
    at least three strands, and the caller asserts the closure diagram is
    prime, the knot is hyperbolic with meridian length under four. Without
    the primality flag the verdict downgrades to adequacy only. Mixed signs
    or a unit exponent give no verdict.
    """
    n_comp = word.closure_component_count()
    if n_comp != 1:
        raise ClosureIsLink(f"closure has {n_comp} components, expected a knot")
    exps = [r for _, r in word.syllables]
    same_sign = all(r > 0 for r in exps) or all(r < 0 for r in exps)
    if not same_sign or any(abs(r) < 2 for r in exps):
        return BraidVerdict.INAPPLICABLE
    if all(abs(r) >= 3 for r in exps) and word.strands >= 3 and prime_asserted:
        return BraidVerdict.MERIDIAN_UNDER_FOUR
    return BraidVerdict.ADEQUATE_ONLY


def best_bounds(reports: Iterable[BoundsReport]) -> BoundsReport:
    """Per-quantity minimum over the applicable rules, with provenance."""
    reports = list(reports)
    candidates: list[BoundCandidate] = []
    for rep in reports:
        candidates.extend(_own_candidates(rep))
    if not candidates:
        raise NoApplicableBound("no bounding rule applies")

    def best_for(quantity: str) -> BoundValue | None:
        matching = [cand for cand in candidates if cand.quantity == quantity]
        if not matching:
            return None
        winner = min(matching, key=lambda cand: _as_fraction(cand.value))
        return BoundValue(winner.value, winner.rule)

    meridian = best_for("meridian")
    notes: tuple[str, ...] = ()
    if meridian is not None and _as_fraction(meridian.value) >= SIX_THEOREM_CEILING:
        notes = ("meridian bound is weaker than the universal bound of six",)
    return BoundsReport(
        meridian_upper=meridian,
        lambda_upper=best_for("lambda"),
        cusp_area_upper=best_for("cuspArea"),
        candidates=tuple(candidates),
        notes=notes,
    )
