"""Resolutions, adequacy, invariants, twist analysis."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from cuspbounds import (
    invariants,
    parse_pd,
    resolve,
    twist_analysis,
)
from cuspbounds.diagram import BraidWord, braid_closure, parse_braid
from cuspbounds.errors import ClosureIsLink, NonAlternatingBigon, StateLengthMismatch
from genutil import (
    closure_pd_text,
    is_alternating_diagram,
    path_following_circle_count,
    pretzel_pd,
    random_knot_diagram,
    traced_bigons,
    traced_faces,
    union_find_circle_count,
    weaving_braid,
)

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
FIG8 = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")
KINK = parse_pd("X[1,1,2,2]")


def all_states(c):
    return ["".join(bits) for bits in itertools.product("AB", repeat=c)]


class TestResolve:
    def test_trefoil_extreme_states(self):
        counts = {resolve(TREFOIL, "AAA")[0], resolve(TREFOIL, "BBB")[0]}
        assert counts == {2, 3}

    def test_fig8_extreme_states(self):
        assert resolve(FIG8, "AAAA")[0] == 3
        assert resolve(FIG8, "BBBB")[0] == 3

    def test_kink_states(self):
        counts = {resolve(KINK, "A")[0], resolve(KINK, "B")[0]}
        assert counts == {1, 2}

    def test_state_length_mismatch(self):
        with pytest.raises(StateLengthMismatch):
            resolve(TREFOIL, "AA")

    def test_letter_states_only(self):
        # The letters are the smoothings: "AAA" is the all-A state of the
        # trefoil, whose 3 circles differ from the 2 of all-B.
        assert resolve(TREFOIL, "AAA")[0] == 3 == invariants(TREFOIL)["vA"]
        for state in ("AxA", "xyz", "aaa", "A", "AAAA", ("A", "A", "A"), None):
            with pytest.raises(StateLengthMismatch):
                resolve(TREFOIL, state)

    def test_graph_edge_per_crossing(self):
        # Each crossing's two smoothing arcs join darts on one circle each:
        # (0,1) and (2,3) when smoothed A, (0,3) and (1,2) when smoothed B.
        count, circle = resolve(FIG8, "ABAB")
        assert len(circle) == 4 * FIG8.c
        assert set(circle) == set(range(count))
        for ci, choice in enumerate("ABAB"):
            a, b, c, d = circle[4 * ci:4 * ci + 4]
            assert (a, c) == ((b, d) if choice == "A" else (d, b))

    def test_matches_path_following_oracle_exhaustively(self):
        rng = random.Random(99)
        for _ in range(12):
            d = random_knot_diagram(rng, 8)
            for state in all_states(d.c):
                assert (
                    resolve(d, state)[0] == path_following_circle_count(d, state)
                )

    def test_single_flip_changes_count_by_one(self):
        rng = random.Random(4242)
        for _ in range(25):
            d = random_knot_diagram(rng, 12)
            state = "".join(rng.choice("AB") for _ in range(d.c))
            base = resolve(d, state)[0]
            for i in range(d.c):
                flipped = state[:i] + ("B" if state[i] == "A" else "A") + state[i + 1:]
                assert abs(resolve(d, flipped)[0] - base) == 1


class TestAdequacy:
    def test_trefoil_adequate_both(self):
        inv = invariants(TREFOIL)
        assert (inv["aAdequate"], inv["bAdequate"]) == (True, True)

    def test_kink_has_loop_side(self):
        inv = invariants(KINK)
        flags = (inv["aAdequate"], inv["bAdequate"])
        assert not all(flags)

    def test_same_sign_braid_closures_adequate(self):
        # exponents of magnitude >= 2 with one sign give adequate closures
        for text in ("2: s1^3", "3: s1^2 s2^3 s1^3", "4: s1^3 s2^3 s3^3", "3: s1^-2 s2^-3 s1^-3"):
            d = braid_closure(parse_braid(text))
            inv = invariants(d)
            assert (inv["aAdequate"], inv["bAdequate"]) == (True, True), text

    def test_identity_permutation_word_is_link(self):
        with pytest.raises(ClosureIsLink):
            braid_closure(parse_braid("3: s1^2 s2^2"))


class TestInvariants:
    def test_trefoil(self):
        inv = invariants(TREFOIL)
        assert inv["c"] == 3
        assert {inv["vA"], inv["vB"]} == {2, 3}
        assert inv["gT"] == 0
        assert {inv["chiA"], inv["chiB"]} == {-1, 0}
        assert inv["delta"] == {"num": -2, "den": 3}
        assert inv["adequate"]

    def test_fig8(self):
        inv = invariants(FIG8)
        assert (inv["c"], inv["vA"], inv["vB"]) == (4, 3, 3)
        assert inv["gT"] == 0
        assert (inv["chiA"], inv["chiB"]) == (-1, -1)
        assert inv["delta"] == {"num": -1, "den": 2}

    def test_delta_in_lowest_terms_on_random_diagrams(self):
        # delta = (2g - 2)/c with a positive denominator; g = 1 gives 0/1.
        rng = random.Random(1618)
        genera = set()
        for _ in range(300):
            inv = invariants(random_knot_diagram(rng, 18))
            delta = Fraction(2 * inv["gT"] - 2, inv["c"])
            assert inv["delta"] == {"num": delta.numerator, "den": delta.denominator}
            assert inv["delta"]["den"] > 0
            if inv["gT"] == 1:
                assert inv["delta"] == {"num": 0, "den": 1}
            genera.add(min(inv["gT"], 2))
        assert genera == {0, 1, 2}

    def test_alternating_families_have_genus_zero(self):
        diagrams = [pretzel_pd(3, 3, 5), pretzel_pd(5, 5, 7), braid_closure(weaving_braid(4))]
        for d in diagrams:
            assert invariants(d)["gT"] == 0
            assert is_alternating_diagram(d)

    def test_alternating_implies_genus_zero(self):
        # the converse needs reduced diagrams: a nugatory kink can break
        # strand alternation while leaving the genus at zero
        rng = random.Random(60221)
        seen_alternating, seen_positive_genus = False, False
        for _ in range(120):
            d = random_knot_diagram(rng, 12)
            g = invariants(d)["gT"]
            if is_alternating_diagram(d):
                seen_alternating = True
                assert g == 0
            if g > 0:
                seen_positive_genus = True
                assert not is_alternating_diagram(d)
        assert seen_alternating and seen_positive_genus

    def test_chi_sum_identity_and_genus_range(self):
        rng = random.Random(31337)
        for _ in range(80):
            d = random_knot_diagram(rng, 12)
            inv = invariants(d)
            assert inv["chiA"] + inv["chiB"] == 2 - 2 * inv["gT"] - inv["c"]
            assert inv["vA"] + inv["vB"] <= inv["c"] + 2
            assert inv["gT"] >= 0
            assert inv["chiA"] <= 1 and inv["chiB"] <= 1


class TestTwistAnalysis:
    def test_fig8(self):
        tw = twist_analysis(FIG8, invariants(FIG8))
        assert (tw["t"], tw["vBi"], tw["vNb"], tw["torusDegenerate"]) == (2, 2, 4, False)

    def test_trefoil_degenerate(self):
        tw = twist_analysis(TREFOIL, invariants(TREFOIL))
        assert tw["torusDegenerate"]
        assert tw["vBi"] == TREFOIL.c
        assert tw["t"] == 1

    def test_kink(self):
        tw = twist_analysis(KINK, invariants(KINK))
        assert (tw["t"], tw["vBi"], tw["torusDegenerate"]) == (1, 0, False)

    def test_three_syllable_positive_braid(self):
        d = braid_closure(parse_braid("4: s1^3 s2^3 s3^3"))
        tw = twist_analysis(d, invariants(d))
        assert (d.c, tw["vBi"], tw["t"]) == (9, 6, 3)

    def test_cyclically_adjacent_syllables_merge_through_closure(self):
        # first and last s1 syllables meet around the closure, forming one
        # twist region of five crossings
        d = braid_closure(parse_braid("3: s1^2 s2^3 s1^3"))
        tw = twist_analysis(d, invariants(d))
        assert (d.c, tw["vBi"], tw["t"]) == (8, 6, 2)

    def test_pretzel_twist_regions(self):
        d = pretzel_pd(3, 5, 7)
        tw = twist_analysis(d, invariants(d))
        assert (tw["t"], tw["vBi"]) == (3, 12)

    def test_non_alternating_bigon_aborts(self):
        # closure of s1^2 s1^-1 built by hand: a reducible clasp
        d = parse_pd("X[2,1,3,4] X[4,3,5,6] X[5,1,2,6]")
        with pytest.raises(NonAlternatingBigon) as excinfo:
            twist_analysis(d, invariants(d))
        # the face between crossings 0 and 2 (0-based) is the clasp
        assert str(excinfo.value) == "non-alternating bigon between crossings 0 and 2"

    def test_counting_identities(self):
        rng = random.Random(2718)
        for _ in range(40):
            d = random_knot_diagram(rng, 12)
            try:
                tw = twist_analysis(d, invariants(d))
            except NonAlternatingBigon:
                continue
            inv = invariants(d)
            assert tw["vBi"] + tw["vNb"] == inv["vA"] + inv["vB"]
            if not tw["torusDegenerate"]:
                assert 1 <= tw["t"] <= d.c
                assert tw["t"] == d.c - tw["vBi"]


class TestKernelAgainstOracles:
    """The orbit-walk kernel against the union-find, path-following and
    tuple-dart face oracles of ``genutil``."""

    @staticmethod
    def check(d):
        inv = invariants(d)
        for choice, v, adequate in (
            ("A", inv["vA"], inv["aAdequate"]),
            ("B", inv["vB"], inv["bAdequate"]),
        ):
            state = choice * d.c
            circles, loops = union_find_circle_count(d, state)
            assert v == circles == path_following_circle_count(d, state)
            assert adequate == (not any(loops))
        boundaries = traced_faces(d)
        assert len(boundaries) == d.c + 2
        bigons, clasp = traced_bigons(d)
        assert (d.bigons, d.clasp) == (bigons, clasp)
        if clasp is not None:
            with pytest.raises(NonAlternatingBigon, match=f"crossings {clasp[0]} and {clasp[1]}$"):
                twist_analysis(d, inv)
            return
        tw = twist_analysis(d, inv)
        assert tw["vBi"] == bigons
        assert tw["t"] == (1 if bigons == d.c else d.c - bigons)

    def test_random_diagrams(self):
        rng = random.Random(4096)
        for _ in range(300):
            self.check(random_knot_diagram(rng, 12))

    def test_large_braid_closures(self):
        words = (
            weaving_braid(1000),
            parse_braid("4: " + "s1^3 s2^3 s3^3 " * 223),
            parse_braid("4: " + "s3^-2 s2^-3 s1^-2 s2^-3 " * 200 + "s3^-3 s2^-3 s1^-3"),
        )
        for word in words:
            d = braid_closure(word)
            assert 1990 <= d.c <= 2010
            self.check(d)

    def test_resolve_matches_union_find_on_mixed_states(self):
        rng = random.Random(8128)
        for _ in range(100):
            d = random_knot_diagram(rng, 12)
            mixed = "".join(rng.choice("AB") for _ in range(d.c))
            # the all-A and all-B states take the walk with one constant arc
            for state in (mixed, "A" * d.c, "B" * d.c):
                circles, loops = union_find_circle_count(d, state)
                count, circle = resolve(d, state)
                assert count == circles
                assert loops == tuple(circle[4 * ci] == circle[4 * ci + 2] for ci in range(d.c))


def test_large_diagrams_start_no_garbage_collection():
    # Validation keeps no object per face, so building and analysing a diagram
    # of 20,004 crossings leaves too few tracked objects alive to start a
    # cyclic collection, which would traverse the young 4c-long lists again.
    word = BraidWord(3, ((1, 3), (2, -3)) * 3334)
    text = closure_pd_text(word)

    def pd_analysis():
        d = parse_pd(text)
        assert twist_analysis(d, invariants(d))["t"] == 6668

    assert gc.isenabled()
    for run in (pd_analysis, lambda: braid_closure(word)):
        gc.collect()
        before = [generation["collections"] for generation in gc.get_stats()]
        run()
        assert [generation["collections"] for generation in gc.get_stats()] == before


class TestSerialization:
    def test_invariants_json_shape(self):
        blob = invariants(FIG8)
        assert blob == {
            "c": 4,
            "vA": 3,
            "vB": 3,
            "chiA": -1,
            "chiB": -1,
            "gT": 0,
            "delta": {"num": -1, "den": 2},
            "aAdequate": True,
            "bAdequate": True,
            "adequate": True,
        }
