"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; "exact" means Fraction equality.

Criterion 5b checks the twist identities on a three-strand braid closure
with every exponent equal to 3. The word first stated for it,
``3: s1^3 s2^3 s1^3``, has permutation (1 2)(2 3)(1 2) = (1 3) with two
cycles, so it closes to a two-component link; the knot-only closure contract
rejects it, as ``test_diagram.py::test_two_cycle_word_rejected`` pins. Even
as a diagram it would not give t = 3: its outer s1 syllables merge through
the closure into one twist region, so t = 2. 5b therefore uses the knot
``3: s1^3 s2^3 s1^3 s2^3`` (c = 12, t = 4, bound 7/2), whose four
syllables alternate generators even cyclically.
"""

import itertools
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath

from cuspbounds import (
    Slope,
    adequate_bounds,
    invariants,
    parse_pd,
    resolve,
    run_batch,
    twist_analysis,
)
from cuspbounds.bounds import (
    PretzelParams,
    SurfacePairData,
    adequate_bounds_from_counts,
    general_bounds,
    pretzel_bounds,
    twist_bound,
)
from cuspbounds.diagram import braid_closure, parse_braid
from cuspbounds.surgery import exceptional_filter, montesinos_window, surgery_volume_window
from genutil import (
    mirror,
    path_following_circle_count,
    pretzel_pd,
    random_adequate_knot_diagram,
    random_knot_diagram,
    weaving_braid,
)

mpmath.mp.dps = 50

FIG8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")


def _report(number: str, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_pretzel_reproduction():
    started = time.monotonic()
    rng = random.Random(101)
    for _ in range(50):
        a, b, c = (2 * rng.randint(1, 100) + 1 for _ in range(3))
        _, report = pretzel_bounds(PretzelParams(a, b, c))
        assert report["meridian"] == Fraction(3)
    _report("1", "pretzel meridian == 3 exactly", started, 1.0)


def test_criterion_2_adequate_bound_identities():
    started = time.monotonic()
    rng = random.Random(202)
    for _ in range(200):
        d = random_adequate_knot_diagram(rng, 12)
        assert d.c <= 12
        inv = invariants(d)
        pair = SurfacePairData(abs(inv["chiA"]), abs(inv["chiB"]), 2 * d.c)
        lhs = general_bounds(pair)["meridian"]
        rhs = adequate_bounds_from_counts(d.c, inv["gT"])["meridian"]
        assert lhs == rhs  # exact Fractions
        assert abs(inv["chiA"]) + abs(inv["chiB"]) == d.c + 2 * inv["gT"] - 2
    _report("2", "adequate == general on checkerboard pair", started, 5.0)


def test_criterion_3_resolution_oracle():
    started = time.monotonic()
    rng = random.Random(303)
    for _ in range(50):
        d = random_knot_diagram(rng, 10)
        assert d.c <= 10
        for bits in itertools.product("AB", repeat=d.c):
            state = "".join(bits)
            assert resolve(d, state)[0] == path_following_circle_count(d, state)
        state = "".join(rng.choice("AB") for _ in range(d.c))
        base = resolve(d, state)[0]
        for i in range(d.c):
            flipped = state[:i] + ("B" if state[i] == "A" else "A") + state[i + 1:]
            assert abs(resolve(d, flipped)[0] - base) == 1
    _report("3", "union-find matches path following on all states", started, 60.0)


def test_criterion_4_alternating_calibration():
    started = time.monotonic()
    diagrams = [
        pretzel_pd(a, b, c)
        for a, b, c in (
            (3, 3, 3), (3, 3, 5), (3, 5, 5), (5, 5, 5), (3, 3, 7), (3, 5, 7),
            (3, 7, 7), (5, 5, 7), (5, 7, 7), (7, 7, 7), (3, 3, 9), (3, 5, 9),
            (3, 9, 9), (5, 5, 9), (9, 9, 9), (3, 7, 9),
        )
    ] + [braid_closure(weaving_braid(k)) for k in (2, 4, 5, 7)]
    assert len(diagrams) == 20
    for d in diagrams:
        inv = invariants(d)
        assert inv["gT"] == 0
        bound = adequate_bounds(inv)["meridian"]
        assert bound == 3 - Fraction(6, d.c)
        assert bound < 3
    _report("4", "alternating: genus 0 and meridian < 3", started, 1.0)


def test_criterion_5a_twist_identity_figure_eight():
    started = time.monotonic()
    tw = twist_analysis(FIG8, invariants(FIG8))
    assert tw["t"] == FIG8.c - tw["vBi"] == 2
    _report("5a", "figure-eight t = c - bigons = 2", started, 1.0)


def test_criterion_5b_twist_identity_stated_braid():
    # The stated word 3: s1^3 s2^3 s1^3 closes to a link and would give t = 2
    # (see the module docstring); this word's permutation
    # (1 2)(2 3)(1 2)(2 3) is a 3-cycle, so it closes to a knot.
    # Hand derivation:
    #   c = 3 + 3 + 3 + 3 = 12;
    #   the syllables alternate s1, s2, s1, s2 even cyclically, so none merge
    #   through the closure and each is its own twist region;
    #   a syllable of 3 crossings has 2 alternating bigons, so v_bi = 8 and
    #   t = c - v_bi = 4;
    #   the bound is 3 + (3*4 - 6)/12 = 7/2 < 4.
    started = time.monotonic()
    d = braid_closure(parse_braid("3: s1^3 s2^3 s1^3 s2^3"))
    tw = twist_analysis(d, invariants(d))
    assert (d.c, tw["vBi"], tw["t"]) == (12, 8, 4)
    assert tw["t"] == d.c - tw["vBi"]
    assert twist_bound(d.c, tw["t"])["meridian"] == Fraction(7, 2) < 4
    _report("5b", "stated braid twist identities", started, 1.0)


def test_criterion_5c_twist_identity_knot_braid():
    started = time.monotonic()
    d = braid_closure(parse_braid("4: s1^3 s2^3 s3^3"))
    tw = twist_analysis(d, invariants(d))
    assert (d.c, tw["vBi"], tw["t"]) == (9, 6, 3)
    assert tw["t"] == d.c - tw["vBi"]
    assert twist_bound(d.c, tw["t"])["meridian"] == Fraction(10, 3) < 4
    _report("5c", "knot braid: c = 9, t = 3, bound 10/3", started, 1.0)


def test_criterion_6_finiteness_grid():
    started = time.monotonic()
    for g in range(0, 11):
        for c in range(1, 201):
            bound = adequate_bounds_from_counts(c, g)["meridian"]
            if g >= 2:
                assert (bound <= 4) == (c >= 6 * g - 6)
            if g <= 3 and c > 12:
                assert bound <= 4
    _report("6", "bound <= 4 iff c >= 6g - 6", started, 1.0)


def test_criterion_7_surgery_thresholds():
    started = time.monotonic()
    for q in range(1, 40):
        non_exc, _ = exceptional_filter(0, Slope(1, q))
        assert non_exc == (q >= 6)
    assert surgery_volume_window(0, Slope(1, 6), 1.0)[0] == 0.0
    lower12 = surgery_volume_window(0, Slope(1, 12), 1.0)[0]
    assert abs(lower12 - 0.75**1.5) < 1e-12
    lowers = [
        surgery_volume_window(0, Slope(1, q), 1.0)[0] for q in range(6, 200)
    ]
    assert all(a <= b for a, b in zip(lowers, lowers[1:]))
    assert 1.0 - surgery_volume_window(0, Slope(1, 10**6), 1.0)[0] < 1e-6
    _report("7", "delta = 0 thresholds and window factors", started, 1.0)


def test_criterion_8_montesinos_window():
    started = time.monotonic()
    lower, upper, _ = montesinos_window(10, Slope(1, 7))
    v8 = 4 * mpmath.catalan
    upper_ref = 2 * v8 * 10
    lower_ref = (v8 / 4) * 1 * (mpmath.mpf(13) / 49) ** (mpmath.mpf(3) / 2)
    assert abs(upper - float(upper_ref)) < 1e-9
    assert abs(lower - float(lower_ref)) < 1e-9
    _report("8", "t = 10, q = 7 window vs 50-digit evaluation", started, 1.0)


def test_criterion_9_mirror_parity():
    started = time.monotonic()
    rng = random.Random(909)
    for _ in range(100):
        d = random_knot_diagram(rng, 12)
        inv, inv_m = invariants(d), invariants(mirror(d))
        assert (inv_m["vA"], inv_m["vB"]) == (inv["vB"], inv["vA"])
        assert (inv_m["aAdequate"], inv_m["bAdequate"]) == (inv["bAdequate"], inv["aAdequate"])
        assert inv_m["gT"] == inv["gT"]
    _report("9", "mirror swaps sides, fixes genus", started, 5.0)


def test_supplementary_reference_table_domination():
    # computed upper bounds must dominate the tabulated geodesic lengths
    started = time.monotonic()
    table = Path(__file__).parent / "data" / "reference_meridians.csv"
    result = run_batch(os.fspath(table))
    summary = result.to_dict()["summary"]
    assert summary["fail"] == 0 and summary["skip"] == 0 and summary["pass"] >= 5
    _report("supplementary", "vetted reference CSV dominated", started, 5.0)
