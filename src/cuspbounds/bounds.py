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
* ``adequate``   -- ``general`` on the checkerboard pair of an adequate
  diagram, which has |chi_A| + |chi_B| = c + 2g - 2 and boundary
  intersection 2c: meridian <= 3 + (6g - 6)/c, lambda <= 3c + 6g - 6,
  area <= 9c (1 + (2g - 2)/c)^2. Source: arXiv 1608.05035.
* ``twist``      -- meridian <= 3 + 3t/c - 6/c from the twist number t, a
  corollary of ``adequate`` with the same hypotheses. Collapsing each twist
  region of an adequate diagram to one crossing keeps g and leaves t
  crossings whose all-A and all-B states have at least two circles each, so
  t - 2g >= 2 and this bound exceeds the ``adequate`` one by at least 6/c.
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
serialized output. :func:`braid_criterion` reads a braid word's verdict, the
primeness of its closure included, off the word alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .diagram import BraidWord
from .errors import (
    BadDiagramCounts,
    DegenerateSurfacePair,
    MoebiusBand,
    NoApplicableBound,
    NonPositiveBudget,
    NotAdequate,
    NotOddOrTooSmall,
    TooFewTwistRegions,
    cut,
)

Numeric = int | float | Fraction
QUANTITIES = ("meridian", "lambda", "cuspArea")
# The 6-theorem: slopes longer than six are never exceptional, and a
# meridian, which is never exceptional, is shorter than six.
SIX = 6


def sig12(x: Numeric) -> float:
    """``x`` rounded to 12 significant digits. A ``Fraction`` is divided out as
    ``numerator / denominator``, the correctly rounded float that ``float()``
    gives, without the call through ``numbers.Rational.__float__``."""
    value = x.numerator / x.denominator if type(x) is Fraction else float(x)
    return float(f"{value:.12g}")


class Sqrt(float):
    """The float nearest sqrt(square) for an integer ``square`` >= 0, keeping
    ``square`` so that bounds compare with it exactly."""

    def __new__(cls, square: int) -> "Sqrt":
        root = super().__new__(cls, math.sqrt(square))
        root.square = square
        return root


def _signed_square(x) -> tuple[int, int]:
    """x |x| exactly, as a numerator and a positive denominator; it orders
    values as x does."""
    if isinstance(x, Sqrt):
        return x.square, 1
    n, d = x.numerator, x.denominator
    return n * abs(n), d * d


def _less(x, y) -> bool:
    """x < y exactly for ints, Fractions and :class:`Sqrt` values, decided by
    integer cross-multiplication of numerators and positive denominators; with
    a Sqrt on either side both sides compare by their signed squares."""
    if isinstance(x, Sqrt) or isinstance(y, Sqrt):
        (a, b), (c, d) = _signed_square(x), _signed_square(y)
    else:
        a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    return a * d < c * b


class SurfacePairData(namedtuple("SurfacePairData", "abs_chi_1 abs_chi_2 intersection")):
    """|chi| of two essential spanning surfaces and their boundary
    intersection number; all three must be positive."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, abs_chi_1: int, abs_chi_2: int, intersection: int) -> SurfacePairData:
        if abs_chi_1 < 1 or abs_chi_2 < 1:
            raise DegenerateSurfacePair("surfaces with chi = 0 carry no length bound")
        if intersection < 1:
            raise DegenerateSurfacePair("boundary intersection number must be positive")
        return tuple.__new__(cls, (abs_chi_1, abs_chi_2, intersection))


def _pair_bounds(s: int, i: int) -> dict[str, Fraction]:
    """The bounds of a surface pair with |chi1| + |chi2| = s and boundary
    intersection number i. The lambda bound is strict in its derivation and
    reported non-strict, as stated."""
    return {"meridian": Fraction(6 * s, i), "lambda": Fraction(3 * s),
            "cuspArea": Fraction(18 * s * s, i)}


def general_bounds(pair: SurfacePairData) -> dict[str, Fraction]:
    """Bounds from an arbitrary essential spanning-surface pair."""
    return _pair_bounds(pair.abs_chi_1 + pair.abs_chi_2, pair.intersection)


def criterion_check(pair: SurfacePairData, budget: Numeric) -> bool:
    """Whether the general meridian bound is at most ``budget``, exactly; the
    boundary case (equality) counts as satisfied."""
    b = Fraction(budget)
    if b <= 0:
        raise NonPositiveBudget(f"budget must be positive, got {cut(budget)}")
    return general_bounds(pair)["meridian"] <= b


def adequate_bounds_from_counts(c: int, g_t: int) -> dict[str, Fraction]:
    """The general bounds of the checkerboard pair of an adequate diagram with
    c >= 1 crossings and genus g >= 0: |chi_A| + |chi_B| = c + 2g - 2, i = 2c."""
    if c < 1 or g_t < 0:
        raise BadDiagramCounts(f"need c >= 1 and g >= 0, got c={cut(c)}, g={cut(g_t)}")
    return _pair_bounds(c + 2 * g_t - 2, 2 * c)


def adequate_bounds(inv: dict) -> dict[str, Fraction]:
    """Bounds for an adequate diagram's checkerboard surface pair, from its
    :func:`states.invariants`."""
    if not inv["adequate"]:
        raise NotAdequate("diagram is not adequate; no diagrammatic bound applies")
    if inv["chiA"] == 0 or inv["chiB"] == 0:
        raise MoebiusBand(
            "a checkerboard surface is a Moebius band; (2, p) torus knot, not hyperbolic"
        )
    return adequate_bounds_from_counts(inv["c"], inv["gT"])


def twist_bound(c: int, t: int) -> dict[str, Fraction]:
    """Meridian bound 3 + 3t/c - 6/c from crossing and twist counts."""
    if c < 1 or not 1 <= t <= c:
        raise BadDiagramCounts(f"need 1 <= t <= c, got t={cut(t)}, c={cut(c)}")
    return {"meridian": Fraction(3 * c + 3 * t - 6, c)}


def twist_area_bound(t: int) -> dict[str, Sqrt]:
    """Cusp-area bound 10 sqrt(3) (t - 1) = sqrt(300 (t - 1)^2) from the twist number alone."""
    if t <= 1:
        raise TooFewTwistRegions(f"area bound is vacuous for t = {t}")
    return {"cuspArea": Sqrt(300 * (t - 1) ** 2)}


class PretzelParams(namedtuple("PretzelParams", "a b c")):
    """Parameters of the three-strip pretzel P(a, -b, -c)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, a: int, b: int, c: int) -> PretzelParams:
        for value in (a, b, c):
            if value <= 1 or value % 2 == 0:
                raise NotOddOrTooSmall(f"pretzel parameters must be odd and > 1: {cut(value)}")
        return tuple.__new__(cls, (a, b, c))


def pretzel_bounds(params: PretzelParams) -> tuple[SurfacePairData, dict[str, Fraction]]:
    """Surface pair and bounds for P(a, -b, -c).

    The boundary slopes of the two surfaces differ by 2b + 2c, which is
    their geometric intersection number; the meridian bound collapses to
    exactly 3 for every valid parameter triple.
    """
    pair = SurfacePairData(params.b + params.c - 1, 1, 2 * params.b + 2 * params.c)
    return pair, general_bounds(pair)


class BraidVerdict:
    """What a closed-braid word guarantees about its knot, as the report prints it."""

    MERIDIAN_UNDER_FOUR = "MeridianUnderFour"
    ADEQUATE_ONLY = "AdequateOnly"
    INAPPLICABLE = "Inapplicable"


def braid_criterion(word: BraidWord) -> str:
    """Classify a braid word by its exponents and its closure's primeness.

    Same-signed exponents, all of magnitude >= 2, make the closure an
    adequate, hence reduced, diagram. If also every magnitude is >= 3, the
    word uses at least three strands, and the closure diagram is prime, the
    knot is hyperbolic with meridian length under four; else the verdict is
    adequacy only. A reduced diagram is composite iff two distinct faces share
    two distinct edges, which in a closed braid takes a face between strands
    j, j + 1 and one between j + 1, j + 2 whose spans wrap around each other:
    s_j and s_j+1 form one block each in the cyclic word
    (:meth:`BraidWord.closure_is_prime`). Such a diagram is prime iff its knot
    is (Cromwell, *Positive braids are visually prime*, Proc. LMS 1993).
    Mixed signs or a unit exponent give no verdict. Exponents are read in the
    cyclic word, as the closure has them, so every rotation gets one verdict.

    The word's closure must be a knot. That is not checked here:
    ``run_analyze`` builds the closure first, and :func:`diagram.braid_closure`
    raises ``ClosureIsLink`` for a link.
    """
    exps = [r for _, r in word.syllables]
    # Like-signed first and last syllables on one generator are one syllable of
    # the closure; BraidWord merged every inner pair, so one merge closes the cycle.
    if len(exps) > 1 and word.syllables[0][0] == word.syllables[-1][0] and exps[0] * exps[-1] > 0:
        exps[0] += exps.pop()
    same_sign = all(r > 0 for r in exps) or all(r < 0 for r in exps)
    if not same_sign or any(abs(r) < 2 for r in exps):
        return BraidVerdict.INAPPLICABLE
    if all(abs(r) >= 3 for r in exps) and word.strands >= 3 and word.closure_is_prime():
        return BraidVerdict.MERIDIAN_UNDER_FOUR
    return BraidVerdict.ADEQUATE_ONLY


def best_bounds(rules: Iterable[tuple[str, dict]]) -> dict:
    """The JSON ``bounds`` block of ``(rule id, values)`` pairs: each
    quantity's least value, the earlier rule winning a tie, and every
    candidate in order. Each value is rounded once, for its candidate entry
    and, if it wins, for its quantity's entry."""
    candidates = []
    best: dict = {}  # quantity -> (exact value, rounded value, rule)
    for rule, values in rules:
        for quantity, value in values.items():
            rounded = sig12(value)
            candidates.append({"quantity": quantity, "value": rounded, "rule": rule})
            held = best.get(quantity)
            if held is None or _less(value, held[0]):
                best[quantity] = value, rounded, rule
    if not candidates:
        raise NoApplicableBound("no bounding rule applies")
    report: dict = {}
    for q in QUANTITIES:
        held = best.get(q)
        report[q] = None if held is None else {"value": held[1], "rule": held[2]}
    report["candidates"] = candidates
    meridian = best.get("meridian")
    report["sixTheoremConsistent"] = meridian is not None and _less(meridian[0], SIX)
    return report
