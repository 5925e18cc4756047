"""Bounding rules: formulas, exactness, rule interplay, braid criterion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspbounds import (
    AnalysisRequest,
    adequate_bounds,
    invariants,
    parse_pd,
    run_analyze,
    twist_analysis,
)
from cuspbounds.bounds import (
    BraidVerdict,
    PretzelParams,
    SurfacePairData,
    adequate_bounds_from_counts,
    best_bounds,
    braid_criterion,
    criterion_check,
    general_bounds,
    pretzel_bounds,
    twist_area_bound,
    twist_bound,
)
from cuspbounds.diagram import parse_braid
from cuspbounds.errors import (
    BadDiagramCounts,
    ClosureIsLink,
    MoebiusBand,
    NoApplicableBound,
    NonAlternatingBigon,
    NonPositiveBudget,
    NotAdequate,
    NotOddOrTooSmall,
    TooFewTwistRegions,
)
from genutil import random_adequate_knot_diagram

FIG8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")


class TestGeneralBounds:
    def test_pretzel_sized_pair(self):
        rep = general_bounds(SurfacePairData(11, 1, 24))
        assert rep["meridian"] == 3

    def test_small_pairs(self):
        rep = general_bounds(SurfacePairData(1, 1, 4))
        assert (
            rep["meridian"],
            rep["lambda"],
            rep["cuspArea"],
        ) == (3, 6, 18)
        rep = general_bounds(SurfacePairData(1, 1, 12))
        assert (rep["meridian"], rep["cuspArea"]) == (1, 6)

    def test_rejects_degenerate_pairs(self):
        with pytest.raises(ValueError):
            SurfacePairData(0, 1, 4)
        with pytest.raises(ValueError):
            SurfacePairData(1, 1, 0)


class TestCriterionCheck:
    def test_wide_pair_meets_budget_four(self):
        assert criterion_check(SurfacePairData(11, 1, 24), 4)

    def test_boundary_budget_counts(self):
        assert criterion_check(SurfacePairData(11, 1, 24), 3)  # 12 <= 12

    def test_fails_over_budget(self):
        assert not criterion_check(SurfacePairData(5, 5, 6), 4)

    def test_rejects_non_positive_budget(self):
        with pytest.raises(NonPositiveBudget):
            criterion_check(SurfacePairData(1, 1, 4), 0)

    @given(
        chi1=st.integers(1, 30),
        chi2=st.integers(1, 30),
        i=st.integers(1, 80),
        num=st.integers(1, 40),
        den=st.integers(1, 8),
    )
    def test_equivalent_to_meridian_bound(self, chi1, chi2, i, num, den):
        pair = SurfacePairData(chi1, chi2, i)
        budget = Fraction(num, den)
        meridian = general_bounds(pair)["meridian"]
        assert criterion_check(pair, budget) == (meridian <= budget)


class TestAdequateBounds:
    def test_fig8_values(self):
        rep = adequate_bounds(invariants(FIG8))
        assert rep["meridian"] == Fraction(3, 2)
        assert rep["lambda"] == 6
        assert rep["cuspArea"] == 9
        report = run_analyze(AnalysisRequest(pd=FIG8.pd_string()))
        assert report["bounds"]["meridian"]["rule"] == "adequate"

    def test_genus_one_meridian_is_three(self):
        for c in range(3, 40):
            assert adequate_bounds_from_counts(c, 1)["meridian"] == 3

    def test_twelve_crossings_genus_three_hits_four(self):
        assert adequate_bounds_from_counts(12, 3)["meridian"] == 4

    def test_bad_counts_are_coded(self):
        for c, g in ((0, 1), (5, -1)):
            with pytest.raises(BadDiagramCounts) as info:
                adequate_bounds_from_counts(c, g)
            assert info.value.code == "BadDiagramCounts"
            assert str(info.value) == f"need c >= 1 and g >= 0, got c={c}, g={g}"
            assert isinstance(info.value, ValueError)

    def test_not_adequate_rejected(self):
        kink = parse_pd("X[1,1,2,2]")
        with pytest.raises(NotAdequate):
            adequate_bounds(invariants(kink))

    def test_moebius_band_rejected(self):
        trefoil = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        with pytest.raises(MoebiusBand):
            adequate_bounds(invariants(trefoil))

    def test_matches_general_on_checkerboard_pair(self):
        rng = random.Random(1418)
        for _ in range(60):
            d = random_adequate_knot_diagram(rng, 12)
            inv = invariants(d)
            pair = SurfacePairData(abs(inv["chiA"]), abs(inv["chiB"]), 2 * d.c)
            general = general_bounds(pair)
            assert set(general) == {"meridian", "lambda", "cuspArea"}
            assert general == adequate_bounds(inv) == adequate_bounds_from_counts(d.c, inv["gT"])
            assert abs(inv["chiA"]) + abs(inv["chiB"]) == d.c + 2 * inv["gT"] - 2

    def test_meridian_monotonicity_in_c(self):
        for g, direction in ((0, "up"), (1, "flat"), (2, "down"), (5, "down")):
            values = [adequate_bounds_from_counts(c, g)["meridian"] for c in range(2, 60)]
            diffs = [b - a for a, b in zip(values, values[1:])]
            if direction == "up":
                assert all(diff > 0 for diff in diffs)
            elif direction == "flat":
                assert all(diff == 0 for diff in diffs)
            else:
                assert all(diff < 0 for diff in diffs)

    def test_finiteness_grid(self):
        for g in range(2, 11):
            for c in range(1, 201):
                under_four = adequate_bounds_from_counts(c, g)["meridian"] <= 4
                assert under_four == (c >= 6 * g - 6)


class TestTwistBounds:
    def test_reference_values(self):
        assert twist_bound(9, 3)["meridian"] == Fraction(10, 3)
        assert twist_bound(4, 2)["meridian"] == 3
        for t in range(1, 8):
            assert twist_bound(3 * t, t)["meridian"] == 4 - Fraction(6, 3 * t)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            twist_bound(4, 5)

    def test_bad_counts_are_coded(self):
        for c, t in ((4, 5), (4, 0), (0, 0)):
            with pytest.raises(BadDiagramCounts) as info:
                twist_bound(c, t)
            assert info.value.code == "BadDiagramCounts"

    def test_area_bound_values(self):
        assert twist_area_bound(2)["cuspArea"] == pytest.approx(10 * math.sqrt(3), abs=1e-12)
        assert twist_area_bound(3)["cuspArea"] == pytest.approx(20 * math.sqrt(3), abs=1e-12)

    def test_area_bound_needs_two_regions(self):
        with pytest.raises(TooFewTwistRegions):
            twist_area_bound(1)

    def test_dominates_adequate_bound_when_expected(self):
        rng = random.Random(92653)
        checked = 0
        for _ in range(60):
            d = random_adequate_knot_diagram(rng, 12)
            inv = invariants(d)
            try:
                tw = twist_analysis(d, invariants(d))
            except NonAlternatingBigon:
                continue
            if tw["torusDegenerate"]:
                continue
            checked += 1
            # Collapsing the twist regions leaves t crossings and the same gT.
            assert tw["t"] - 2 * inv["gT"] >= 2
            assert twist_bound(d.c, tw["t"])["meridian"] > adequate_bounds(inv)["meridian"]
        assert checked > 20


class TestPretzelBounds:
    def test_three_five_seven(self):
        pair, rep = pretzel_bounds(PretzelParams(3, 5, 7))
        assert (pair.abs_chi_1, pair.abs_chi_2, pair.intersection) == (11, 1, 24)
        assert rep["meridian"] == 3
        report = run_analyze(AnalysisRequest(pretzel=(3, 5, 7)))
        assert report["bounds"]["meridian"]["rule"] == "pretzel"

    def test_all_threes(self):
        pair, rep = pretzel_bounds(PretzelParams(3, 3, 3))
        assert (pair.abs_chi_1, pair.abs_chi_2, pair.intersection) == (5, 1, 12)
        assert rep["meridian"] == 3

    def test_even_parameter_rejected(self):
        with pytest.raises(NotOddOrTooSmall):
            PretzelParams(3, 4, 5)
        with pytest.raises(NotOddOrTooSmall):
            PretzelParams(1, 3, 5)

    def test_meridian_identically_three(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b, c = (2 * rng.randint(1, 60) + 1 for _ in range(3))
            _, rep = pretzel_bounds(PretzelParams(a, b, c))
            assert rep["meridian"] == Fraction(3)


class TestBraidCriterion:
    def test_meridian_under_four(self):
        word = parse_braid("4: s1^3 s2^3 s3^3")
        assert braid_criterion(word, prime_asserted=True) == BraidVerdict.MERIDIAN_UNDER_FOUR

    def test_downgrade_without_primality(self):
        word = parse_braid("4: s1^3 s2^3 s3^3")
        assert braid_criterion(word) == BraidVerdict.ADEQUATE_ONLY

    def test_adequate_only_for_magnitude_two(self):
        word = parse_braid("3: s1^2 s2^3 s1^3")
        assert braid_criterion(word, prime_asserted=True) == BraidVerdict.ADEQUATE_ONLY

    def test_two_strand_words_downgrade(self):
        # a 2-strand closure is a (2, r) torus knot, never hyperbolic
        assert braid_criterion(parse_braid("2: s1^3"), True) == BraidVerdict.ADEQUATE_ONLY

    def test_mixed_signs_inapplicable(self):
        assert braid_criterion(parse_braid("3: s1^3 s2^-3"), True) == BraidVerdict.INAPPLICABLE

    def test_unit_exponent_inapplicable(self):
        assert braid_criterion(parse_braid("3: s1^1 s2^3"), True) == BraidVerdict.INAPPLICABLE

    def test_negative_side(self):
        word = parse_braid("4: s1^-3 s2^-3 s3^-3")
        assert braid_criterion(word, prime_asserted=True) == BraidVerdict.MERIDIAN_UNDER_FOUR

    def test_link_closure_rejected(self):
        with pytest.raises(ClosureIsLink):
            braid_criterion(parse_braid("3: s1^3 s2^3 s1^3"), True)


class TestBestBounds:
    def test_minimum_with_provenance(self):
        adequate = adequate_bounds(invariants(FIG8))
        twist = {"meridian": Fraction(3)}
        combined = best_bounds([("adequate", adequate), ("twist", twist)])
        assert combined["meridian"]["value"] == Fraction(3, 2)
        assert combined["meridian"]["rule"] == "adequate"
        assert len(combined["candidates"]) == 4

    def test_single_report(self):
        rep = general_bounds(SurfacePairData(1, 1, 4))
        combined = best_bounds([("general", rep)])
        assert combined["meridian"]["value"] == 3

    def test_empty_raises(self):
        with pytest.raises(NoApplicableBound):
            best_bounds([])

    def test_weak_meridian_flagged(self):
        rep = general_bounds(SurfacePairData(5, 5, 6))  # meridian bound 10
        combined = best_bounds([("general", rep)])
        assert not combined["sixTheoremConsistent"]

    def test_earlier_rule_wins_a_tie(self):
        tied = best_bounds([("adequate", {"meridian": Fraction(3)}), ("twist", {"meridian": 3})])
        assert tied["meridian"] == {"value": 3.0, "rule": "adequate"}

    @pytest.mark.parametrize("t", [2, 3, 4, 10, 1001])
    def test_twist_area_compared_exactly(self, t):
        # A rational equal to the float of 10 sqrt(3) (t - 1) ties with it when
        # compared as floats; exactly, one of the two is smaller.
        area = twist_area_bound(t)
        rational = {"cuspArea": Fraction(float(area["cuspArea"]))}
        rational_smaller = rational["cuspArea"] ** 2 < 300 * (t - 1) ** 2
        for rules in ([("adequate", rational), ("twist_area", area)],
                      [("twist_area", area), ("adequate", rational)]):
            winner = best_bounds(rules)["cuspArea"]["rule"]
            assert winner == ("adequate" if rational_smaller else "twist_area")

    def test_json_shape(self):
        d = best_bounds([("adequate", adequate_bounds(invariants(FIG8)))])
        assert set(d) == {"meridian", "lambda", "cuspArea", "candidates", "sixTheoremConsistent"}
        assert d["meridian"] == {"value": 1.5, "rule": "adequate"}
        assert d["sixTheoremConsistent"] is True
