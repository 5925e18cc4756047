"""Slope-length floors, exceptional-slope filters, volume windows."""

import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspbounds import Slope
from cuspbounds.errors import (
    BadDiagramCounts,
    DeltaOutOfRange,
    InvalidSlope,
    NonPositiveVolume,
    SlopeTooSmall,
    TooFewTwistRegions,
)
from cuspbounds.surgery import (
    CUSP_AREA_FLOOR,
    V8,
    exceptional_filter,
    montesinos_window,
    slope_length_lower,
    surgery_volume_window,
)

mpmath.mp.dps = 50

FIG8_VOLUME = 2.029883212819  # caller-supplied data, not computed here


def deltas(den: int, max_num: int):
    """delta = num/den with 1 + delta > 0, the domain of the slope thresholds:
    num runs from max(-2, 1 - den) to max_num."""
    return st.builds(Fraction, st.integers(max(-2, 1 - den), max_num), st.just(den))


class TestSlope:
    def test_rejects_meridian(self):
        with pytest.raises(ValueError):
            Slope(1, 0)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            Slope(2, 14)

    def test_coded_error(self):
        for p, q in ((1, 0), (2, 14)):
            with pytest.raises(InvalidSlope) as info:
                Slope(p, q)
            assert info.value.code == "InvalidSlope"
            assert isinstance(info.value, ValueError)


class TestConstants:
    def test_exclusion_factor_is_exact(self):
        assert Fraction(18) / CUSP_AREA_FLOOR == Fraction(360, 67)

    def test_octahedron_volume_matches_high_precision(self):
        v8 = 4 * mpmath.catalan
        assert abs(V8 - float(v8)) < 1e-12


class TestSlopeLengthLower:
    def test_formula_value(self):
        assert slope_length_lower(10, 1, Slope(1, 6)) == pytest.approx(6.7, abs=1e-12)

    def test_genus_one_slope_six_beats_two_pi(self):
        import math

        for c in (3, 10, 25, 100):
            assert slope_length_lower(c, 1, Slope(1, 6)) == pytest.approx(6.7, abs=1e-12)
        assert 6.7 > 2 * math.pi

    def test_degenerate_denominator(self):
        # 3c + 6g - 6 = 0: 1 + delta = 0, refused with the code the CLI reports
        with pytest.raises(DeltaOutOfRange):
            slope_length_lower(2, 0, Slope(1, 5))

    def test_bad_counts(self):
        for c, g in ((0, 1), (-3, 2), (5, -1)):
            with pytest.raises(BadDiagramCounts):
                slope_length_lower(c, g, Slope(1, 5))
        assert issubclass(BadDiagramCounts, ValueError)

    def test_floor_past_the_largest_float_is_an_invalid_slope(self):
        # c = 10, g = 1: M = 3 and the floor is 67 |q| / 60, finite up to the
        # largest float and refused once it rounds to 2^1024
        last = int(sys.float_info.max) * 60 // 67
        assert slope_length_lower(10, 1, Slope(1, last)) == float(Fraction(67 * last, 60))
        for q in (2**1024 * 60 // 67 + 1, -(10**400)):
            with pytest.raises(InvalidSlope, match="overflows a float"):
                slope_length_lower(10, 1, Slope(1, q))


class TestExceptionalFilter:
    def test_threshold_examples(self):
        assert exceptional_filter(0, Slope(1, 6)) == (True, False)
        assert exceptional_filter(0, Slope(1, 5)) == (False, False)
        assert exceptional_filter(Fraction(1, 2), Slope(1, 9)) == (True, False)

    def test_delta_zero_cutoff_is_six(self):
        for q in range(1, 30):
            non_exc, _ = exceptional_filter(0, Slope(1, q))
            assert non_exc == (q >= 6)

    @given(q=st.integers(1, 400), delta=st.integers(1, 20).flatmap(lambda d: deltas(d, 40)))
    def test_monotone_in_q(self, q, delta):
        first, _ = exceptional_filter(delta, Slope(1, q))
        second, _ = exceptional_filter(delta, Slope(1, q + 1))
        assert second or not first

    @given(
        q=st.integers(1, 400),
        pair=st.integers(1, 15).flatmap(lambda d: st.tuples(deltas(d, 30), deltas(d, 30))),
    )
    def test_anti_monotone_in_delta(self, q, pair):
        low, high = sorted(pair)
        permissive, _ = exceptional_filter(low, Slope(1, q))
        strict_result, _ = exceptional_filter(high, Slope(1, q))
        assert permissive or not strict_result

    def test_refuses_delta_with_one_plus_delta_not_positive(self):
        for delta in (-1, Fraction(-5, 4), -2):
            with pytest.raises(DeltaOutOfRange):
                exceptional_filter(delta, Slope(1, 1))
        assert exceptional_filter(Fraction(-2, 3), Slope(1, 2)) == (True, False)


class TestVolumeWindow:
    def test_boundary_slope_gives_zero_lower(self):
        assert surgery_volume_window(0, Slope(1, 6), FIG8_VOLUME) == (0.0, FIG8_VOLUME, True)

    def test_q_twelve_factor(self):
        lower, _, _ = surgery_volume_window(0, Slope(1, 12), 2.02988)
        assert lower == pytest.approx(2.02988 * 0.75**1.5, abs=1e-12)
        # frozen: 2.02988 * (3/4)^(3/2) evaluated at 50 digits
        assert lower == pytest.approx(1.3184457349754672, abs=1e-12)

    def test_slope_too_small(self):
        with pytest.raises(SlopeTooSmall):
            surgery_volume_window(Fraction(1, 3), Slope(1, 7), 1.0)

    def test_non_positive_volume(self):
        with pytest.raises(NonPositiveVolume):
            surgery_volume_window(0, Slope(1, 8), 0.0)

    def test_refuses_delta_with_one_plus_delta_not_positive(self):
        for delta in (-1, Fraction(-3, 2), -5):
            with pytest.raises(DeltaOutOfRange):
                surgery_volume_window(delta, Slope(1, 1), 1.0)
        # delta = -2/3 is the smallest value a knot has; it stays allowed
        assert surgery_volume_window(Fraction(-2, 3), Slope(1, 2), 1.0)[2]

    def test_lower_bound_monotone_and_limits(self):
        lowers = [
            surgery_volume_window(0, Slope(1, q), FIG8_VOLUME)[0]
            for q in range(6, 80)
        ]
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))
        far = surgery_volume_window(0, Slope(1, 10**6), FIG8_VOLUME)[0]
        assert FIG8_VOLUME - far < 1e-6 * FIG8_VOLUME

    def test_two_pi_implies_window_applicable(self):
        for q in range(1, 40):
            for delta in (Fraction(0), Fraction(1, 3), Fraction(-1, 2)):
                _, two_pi = exceptional_filter(delta, Slope(1, q))
                if two_pi:
                    surgery_volume_window(delta, Slope(1, q), 1.0)  # must not raise


class TestMontesinosWindow:
    def test_lower_clamped_at_nine_regions(self):
        lower, upper, _ = montesinos_window(9, Slope(1, 100))
        assert lower == 0.0
        assert upper == pytest.approx(2 * V8 * 9, abs=1e-12)

    def test_slope_too_small(self):
        with pytest.raises(SlopeTooSmall):
            montesinos_window(10, Slope(1, 5))

    def test_too_few_regions(self):
        with pytest.raises(TooFewTwistRegions):
            montesinos_window(1, Slope(1, 7))
