"""Upper bounds on meridian length, shortest lambda-curve, and cusp area.

Each bounding rule is a function returning ``{quantity: value}`` for the
quantities it bounds (``meridian``, ``lambda``, ``cuspArea``). A caller lists
``(rule id, values)`` pairs and :func:`best_bounds` reports the least value
of each quantity with the rule that gave it. The rules and their sources:

* ``general``    -- from a pair of essential spanning surfaces with Euler
  characteristics chi1, chi2 and boundary intersection number i:
  meridian <= 6(|chi1| + |chi2|)/i, lambda <= 3(|chi1| + |chi2|),
  area <= 18(|chi1| + |chi2|)^2 / i. Source: *Geometric estimates from
  spanning surfaces* (arXiv 1608.05035).
* ``adequate``   -- for adequate diagrams the checkerboard pair has
  |chi_A| + |chi_B| = c + 2g - 2 and boundary intersection 2c, giving
  meridian <= 3 + (6g - 6)/c, lambda <= 3c + 6g - 6,
  area <= 9c (1 + (2g - 2)/c)^2. Source: arXiv 1608.05035.
* ``twist``      -- meridian <= 3 + 3t/c - 6/c from the twist number t.
  Source not yet identified, so its diagram hypotheses are not known.
* ``pretzel``    -- the three-strip pretzel P(a, -b, -c), a, b, c odd > 1:
  the all-A surface (chi = 1 - b - c, boundary slope -2b - 2c) against the
  genus-minimizing spanning surface (chi = -1, slope 0) gives meridian <= 3.
  Source: arXiv 1608.05035.
* ``twist_area`` -- area <= 10 sqrt(3) (t - 1), useful when t << c. Source:
  Lackenby and Purcell, *Cusp volumes of alternating knots* (Geom. Topol.
  2016), for twist-reduced alternating diagrams; neither hypothesis is
  checked here.

Rational values are exact ``Fraction``s. The one irrational value,
10 sqrt(3) (t - 1), is a :class:`Sqrt` that keeps its exact square, so the
choice of each least value is exact as well; floats appear only in
serialized output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .diagram import BraidWord
from .errors import (
    BadDiagramCounts,
    ClosureIsLink,
    DegenerateSurfacePair,
    MoebiusBand,
    NoApplicableBound,
    NonPositiveBudget,
    NotAdequate,
    NotOddOrTooSmall,
    TooFewTwistRegions,
)
from .states import DiagramInvariants

Numeric = Union[int, float, Fraction]
QUANTITIES = ("meridian", "lambda", "cuspArea")

# Ceiling against which meridian bounds are sanity-checked: exceptional
# slopes have length at most six, and meridians strictly less.
SIX_THEOREM_CEILING = 6


def sig12(x: Numeric) -> float:
    return float(f"{float(x):.12g}")


class Sqrt(float):
    """The float nearest sqrt(square) for an integer ``square`` >= 0, keeping
    ``square`` so that bounds compare with it exactly."""

    def __new__(cls, square: int) -> "Sqrt":
        root = super().__new__(cls, math.sqrt(square))
        root.square = square
        return root


def _signed_square(x) -> Numeric:
    """x |x| exactly, which orders values as x does."""
    return x.square if isinstance(x, Sqrt) else x * abs(x)


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


def general_bounds(pair: SurfacePairData) -> dict[str, Fraction]:
    """Bounds from an arbitrary essential spanning-surface pair. The lambda
    bound is strict in its derivation and reported non-strict, as stated."""
    s, i = pair.chi_sum, pair.intersection
    return {"meridian": Fraction(6 * s, i), "lambda": Fraction(3 * s),
            "cuspArea": Fraction(18 * s * s, i)}


def criterion_check(pair: SurfacePairData, budget: Numeric) -> bool:
    """Whether |chi1| + |chi2| <= (budget/6) * i, exactly.

    Equivalent to the general meridian bound being at most ``budget``; the
    boundary case (equality) counts as satisfied.
    """
    b = Fraction(budget)
    if b <= 0:
        raise NonPositiveBudget(f"budget must be positive, got {budget}")
    return Fraction(pair.chi_sum) <= b / 6 * pair.intersection


def adequate_bounds_from_counts(c: int, g_t: int) -> dict[str, Fraction]:
    """The adequate-diagram formulas as pure arithmetic in (c, g)."""
    if c < 1:
        raise BadDiagramCounts(f"crossing count must be positive, got {c}")
    if g_t < 0:
        raise BadDiagramCounts(f"genus must be non-negative, got {g_t}")
    return {
        "meridian": 3 + Fraction(6 * g_t - 6, c),
        "lambda": Fraction(3 * c + 6 * g_t - 6),
        "cuspArea": 9 * c * (1 + Fraction(2 * g_t - 2, c)) ** 2,
    }


def adequate_bounds(inv: DiagramInvariants) -> dict[str, Fraction]:
    """Bounds for an adequate diagram's checkerboard surface pair."""
    if not inv.adequate:
        raise NotAdequate("diagram is not adequate on both sides")
    if inv.chi_a == 0 or inv.chi_b == 0:
        raise MoebiusBand(
            "a checkerboard surface is a Moebius band; (2, p) torus diagram, not hyperbolic"
        )
    return adequate_bounds_from_counts(inv.c, inv.g_t_diagram)


def twist_bound(c: int, t: int) -> dict[str, Fraction]:
    """Meridian bound 3 + 3t/c - 6/c from crossing and twist counts."""
    if c < 1 or not 1 <= t <= c:
        raise BadDiagramCounts(f"need 1 <= t <= c, got t={t}, c={c}")
    return {"meridian": 3 + Fraction(3 * t - 6, c)}


def twist_area_bound(t: int) -> dict[str, Sqrt]:
    """Cusp-area bound 10 sqrt(3) (t - 1) = sqrt(300 (t - 1)^2) from the twist number alone."""
    if t <= 1:
        raise TooFewTwistRegions(f"area bound is vacuous for t = {t}")
    return {"cuspArea": Sqrt(300 * (t - 1) ** 2)}


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


def pretzel_bounds(params: PretzelParams) -> tuple[SurfacePairData, dict[str, Fraction]]:
    """Surface pair and bounds for P(a, -b, -c).

    The boundary slopes of the two surfaces differ by 2b + 2c, which is
    their geometric intersection number; the meridian bound collapses to
    exactly 3 for every valid parameter triple.
    """
    pair = SurfacePairData(params.b + params.c - 1, 1, 2 * params.b + 2 * params.c)
    return pair, general_bounds(pair)


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


def best_bounds(rules: Iterable[tuple[str, dict]]) -> dict:
    """The JSON ``bounds`` block of ``(rule id, values)`` pairs: each
    quantity's least value, the earlier rule winning a tie, and every
    candidate in order."""
    candidates = [(quantity, value, rule) for rule, values in rules
                  for quantity, value in values.items()]
    if not candidates:
        raise NoApplicableBound("no bounding rule applies")
    best = {
        quantity: min(((v, r) for q, v, r in candidates if q == quantity),
                      key=lambda vr: _signed_square(vr[0]), default=None)
        for quantity in QUANTITIES
    }
    report: dict = {
        q: None if b is None else {"value": sig12(b[0]), "rule": b[1]} for q, b in best.items()
    }
    report["candidates"] = [{"quantity": q, "value": sig12(v), "rule": r} for q, v, r in candidates]
    meridian = best["meridian"]
    report["sixTheoremConsistent"] = meridian is not None and meridian[0] < SIX_THEOREM_CEILING
    return report
