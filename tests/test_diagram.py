"""Parsing, validation, faces, braids, closures, mirrors."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cuspbounds
from cuspbounds import parse_pd
from cuspbounds.diagram import (
    BraidWord,
    PlanarDiagram,
    _face_orbits,
    braid_closure,
    parse_braid,
)
from cuspbounds.errors import (
    BadGeneratorIndex,
    ClosureIsLink,
    CuspBoundsError,
    EmptyDiagram,
    EdgeLabelUsedOtherThanTwice,
    FewerThanTwoStrands,
    MalformedToken,
    MultiComponentLink,
    NonPlanarDiagram,
    TooManyCrossings,
    ZeroExponent,
)
from genutil import (
    crossing_labels,
    findall_parse_pd,
    mirror,
    random_knot_diagram,
    weaving_braid,
)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
KINK = "X[1,1,2,2]"


def face_degrees(d: PlanarDiagram) -> list[int]:
    return sorted(map(len, _face_orbits(d.partner)))


def alternating_bigons(d: PlanarDiagram) -> int:
    """Degree-2 faces between two crossings whose slots share parity."""
    return sum(d1 >> 2 != d2 >> 2 and (d1 - d2) % 2 == 0 for d1, d2 in d.degree_two_faces)


class TestParsePd:
    def test_trefoil(self):
        d = parse_pd(TREFOIL)
        assert d.c == 3
        assert len(set(d.slots)) == 6
        assert len(_face_orbits(d.partner)) == 5

    def test_kink(self):
        d = parse_pd(KINK)
        assert d.c == 1
        assert len(_face_orbits(d.partner)) == 3

    def test_paren_tuples_and_commas(self):
        d = parse_pd("(1,4,2,5), (3,6,4,1), (5,2,6,3)")
        assert d == parse_pd(TREFOIL)

    def test_label_normalization(self):
        d = parse_pd("X[10,40,20,50] X[30,60,40,10] X[50,20,60,30]")
        assert d == parse_pd(TREFOIL)

    def test_empty_input(self):
        with pytest.raises(EmptyDiagram):
            parse_pd("")

    def test_malformed_token(self):
        with pytest.raises(MalformedToken):
            parse_pd("X[1,2,3] X[4,5,6,7]")

    @pytest.mark.parametrize("token", ["(1,4,2,5)", "[1,4,2,5]"])
    def test_malformed_tail_after_many_tokens_fails_fast(self, token):
        # A bad token after 60 good ones, in the documented comma-separated
        # form: the error must come in linear time, naming the bad token.
        # The parse runs in a child process so that a backtracking
        # regression fails on the timeout instead of hanging the suite.
        text = ", ".join([token] * 60) + ", ( 7"
        code = (
            "import sys; from cuspbounds import parse_pd\n"
            "from cuspbounds.errors import MalformedToken\n"
            "try:\n    parse_pd(sys.argv[1])\n"
            "except MalformedToken as exc:\n    print(exc)\n"
        )
        src = Path(cuspbounds.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code, text],
            capture_output=True,
            text=True,
            timeout=20,
            env={**os.environ, "PYTHONPATH": os.fspath(src)},
        )
        assert proc.stdout == "unrecognized PD token at: '( 7'\n", proc.stderr

    def test_malformed_token_position(self):
        cases = {
            "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] X[": "'X['",
            "X[1,4,2,5]  junk X[3,6,4,1]": "'junk X[3,6,4,1]'",
            "(1,4,2,5), [3,6,4,1] , x (5,2,6": "'x (5,2,6'",
            " ,X[1,4,2,5]": "',X[1,4,2,5]'",
        }
        for text, rest in cases.items():
            with pytest.raises(MalformedToken) as excinfo:
                parse_pd(text)
            assert str(excinfo.value) == f"unrecognized PD token at: {rest}"

    def test_label_past_the_int_digit_limit(self):
        # int() refuses more than 4,300 digits with a plain ValueError
        with pytest.raises(MalformedToken):
            parse_pd(f"X[{'9' * 5000},1,2,3]")

    def test_label_used_thrice(self):
        with pytest.raises(EdgeLabelUsedOtherThanTwice):
            parse_pd("X[1,1,1,2] X[2,3,3,4]")

    def test_hopf_link_rejected(self):
        with pytest.raises(MultiComponentLink):
            parse_pd("X[1,4,2,3] X[3,2,4,1]")

    def test_non_planar_rotation_data_rejected(self):
        # trefoil with one crossing's slots scrambled non-cyclically: still a
        # one-component 4-valent code, but the Euler count drops to 3 faces
        with pytest.raises(NonPlanarDiagram):
            parse_pd("X[1,2,4,5] X[3,6,4,1] X[5,2,6,3]")

    def test_round_trip(self):
        for text in (TREFOIL, FIG8, KINK):
            d = parse_pd(text)
            assert parse_pd(d.pd_string()) == d


class TestFlatLabels:
    """The diagram is one flat label tuple; these pin its checks and views."""

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,7]", EdgeLabelUsedOtherThanTwice,
             "edge labels not used exactly twice: [5, 7]"),
            ("X[1,1,1,2] X[2,3,3,4]", EdgeLabelUsedOtherThanTwice,
             "edge labels not used exactly twice: [1, 4]"),
            ("X[1,1,1,1] X[2,2,3,3]", EdgeLabelUsedOtherThanTwice,
             "edge labels not used exactly twice: [1]"),
            ("X[0,1,1,0]", MalformedToken, "edge labels must be positive"),
            ((10, 40, 20, 50, 30, 60, 40, 10, 50, 20, 60, 70), EdgeLabelUsedOtherThanTwice,
             "edge labels not used exactly twice: [30, 70]"),
            ((10, 40, 20, 50, 30, 60, 40, 10, 50, 20, 60, 30, 10, 20, 30, 40),
             EdgeLabelUsedOtherThanTwice, "edge labels not used exactly twice: [10, 20, 30, 40]"),
            ((1, 4, 2, 5, 3, 6, 4, 1, 5, 2, 6, 3, 7, 7, 7, 7), EdgeLabelUsedOtherThanTwice,
             "edge labels not used exactly twice: [7]"),
            ((1, 4, 2, 5, 3, 6, 0, 1), MalformedToken,
             "edge labels must be positive integers: (3, 6, 0, 1)"),
            ((1, 4, 2, 5, 3, "6", 4, 1), MalformedToken,
             "edge labels must be positive integers: (3, '6', 4, 1)"),
            ((1.0, 4, 2, 5), MalformedToken, "edge labels must be positive integers: (1.0, 4, 2, 5)"),
            ((1, 4, 2, 5, 3, 6, 4), MalformedToken, "crossing needs 4 edge labels, got (3, 6, 4)"),
            ((), EmptyDiagram, "diagram has no crossings"),
        ],
    )
    def test_label_errors(self, source, error, message):
        # PD text goes through parse_pd (labels renumbered 1..2c first);
        # tuples are constructed directly, keeping sparse labels as given.
        with pytest.raises(error) as excinfo:
            parse_pd(source) if isinstance(source, str) else PlanarDiagram(source)
        assert str(excinfo.value) == message

    def test_views_and_serialization_on_random_diagrams(self):
        rng = random.Random(31337)
        for _ in range(300):
            d = random_knot_diagram(rng, 16)
            assert len(d.slots) == 4 * d.c
            text = d.pd_string()
            assert text == " ".join("X[%d,%d,%d,%d]" % x for x in crossing_labels(d))
            assert parse_pd(text) == d
            assert mirror(mirror(d)) == d

    def test_parse_matches_findall_oracle_on_mutated_text(self):
        # Mutations splice in the grammar's characters, letters and signs, add
        # Unicode whitespace, or write a digit in Arabic-Indic form (same
        # value), so that both label readers see every character class.
        rng = random.Random(8128)
        alphabet = "Xx[](),0123456789 \t\n-+a.;\u0663"
        spaces = " \t\n\u00a0\u2003\x1c"
        seeds = [TREFOIL, FIG8, KINK, "(1,4,2,5), (3,6,4,1), (5,2,6,3)"]
        seeds += [random_knot_diagram(rng, 10).pd_string() for _ in range(20)]
        outcomes = set()
        for _ in range(3000):
            text = rng.choice(seeds)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(text) + 1)
                kind = rng.randrange(3)
                if kind == 0:
                    j = min(len(text), i + rng.randint(0, 3))
                    text = text[:i] + "".join(rng.choices(alphabet, k=rng.randint(0, 2))) + text[j:]
                elif kind == 1:
                    text = text[:i] + rng.choice(spaces) + text[i:]
                elif text[i:i + 1].isdigit():
                    text = text[:i] + chr(0x660 + int(text[i])) + text[i + 1:]
            try:
                expected = findall_parse_pd(text)
            except Exception as exc:  # noqa: BLE001 -- the oracle's error is the expectation
                outcomes.add(type(exc).__name__)
                with pytest.raises(type(exc)) as excinfo:
                    parse_pd(text)
                assert str(excinfo.value) == str(exc), text
            else:
                outcomes.add("ok")
                assert parse_pd(text) == expected, text
        assert outcomes >= {"ok", "MalformedToken", "EdgeLabelUsedOtherThanTwice"}


class TestFaces:
    def test_trefoil_faces(self):
        d = parse_pd(TREFOIL)
        assert face_degrees(d) == [2, 2, 2, 3, 3]
        assert alternating_bigons(d) == 3

    def test_fig8_faces(self):
        d = parse_pd(FIG8)
        assert face_degrees(d) == [2, 2, 3, 3, 3, 3]
        assert alternating_bigons(d) == 2

    def test_kink_faces(self):
        d = parse_pd(KINK)
        assert face_degrees(d) == [1, 1, 2]
        # the degree-2 face sits at a single crossing, so it is no bigon
        assert len(d.degree_two_faces) == 1
        assert alternating_bigons(d) == 0

    def test_euler_and_degree_sum_on_random_diagrams(self):
        rng = random.Random(20240811)
        for _ in range(60):
            d = random_knot_diagram(rng, 12)
            orbits = _face_orbits(d.partner)
            assert len(orbits) == d.c + 2
            assert sum(map(len, orbits)) == 4 * d.c


class TestParseBraid:
    def test_simple(self):
        w = parse_braid("2: s1^3")
        assert (w.strands, w.syllables) == (2, ((1, 3),))

    def test_three_syllables(self):
        w = parse_braid("3: s1^3 s2^3 s1^3")
        assert len(w.syllables) == 3
        assert sum(abs(r) for _, r in w.syllables) == 9

    def test_crossing_cap(self):
        cap = cuspbounds.diagram.MAX_CROSSINGS
        # the cap counts |r| as written, merged or not, and stops at the first
        # syllable over it; nothing here builds a diagram
        assert parse_braid(f"2: s1^{cap}").syllables == ((1, cap),)
        assert parse_braid(f"{cap + 1}: s1^3").strands == cap + 1
        for text in (f"2: s1^{cap + 1}", f"2: s1^{cap} s1^-1", f"3: s1^{cap} s2^1",
                     "2: s1^999999999999", f"{cap + 2}: s1^3"):
            with pytest.raises(TooManyCrossings) as info:
                parse_braid(text)
            assert info.value.code == "TooManyCrossings"

    @pytest.mark.parametrize(
        "text, error",
        [
            (f"2: s1^{'9' * 5000}", TooManyCrossings),
            (f"2: s1^-{'9' * 5000}", TooManyCrossings),
            (f"2: s{'9' * 5000}^3", BadGeneratorIndex),
        ],
    )
    def test_numbers_past_the_int_digit_limit(self, text, error):
        # int() refuses more than 4,300 digits with a plain ValueError
        with pytest.raises(error):
            parse_braid(text)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (f"{'9' * 5000}: s1^3", MalformedToken, f"bad strand count {'9' * 20!r}"),
            (f"3: s1^3 {'x' * 5000}", MalformedToken, f"unrecognized braid syllable {'x' * 20!r}"),
            (f"3: s{'1' * 4000}^0", ZeroExponent, f"syllable {'s' + '1' * 19!r} has exponent zero"),
            (f"{'9' * 4000}: s1^3", TooManyCrossings, f"strand count {'9' * 20!r} exceeds 100001"),
            (f"3: s{'9' * 4000}^3", BadGeneratorIndex, f"generator s{'9' * 20} outside 1..2"),
            (f"-{'9' * 4000}: s1^3", FewerThanTwoStrands, f"need at least 2 strands, got -{'9' * 19}"),
        ],
    )
    def test_long_tokens_are_echoed_cut_to_twenty_characters(self, text, error, message):
        with pytest.raises(error) as excinfo:
            parse_braid(text)
        assert str(excinfo.value) == message

    def test_braid_word_applies_the_caps_itself(self):
        # words built without parse_braid: numbers past str()'s 4,300 digits and
        # more strands or crossings than MAX_CROSSINGS allows end in coded errors
        cap = cuspbounds.diagram.MAX_CROSSINGS
        huge = 10**5000
        calls = [
            (lambda: BraidWord(2, ((huge, 1),)), BadGeneratorIndex),
            (lambda: BraidWord(2, ((-huge, 1),)), BadGeneratorIndex),
            (lambda: BraidWord(huge, ((1, 1),)).permutation(), TooManyCrossings),
            (lambda: BraidWord(-huge, ((1, 1),)), FewerThanTwoStrands),
            (lambda: BraidWord(cap + 2, ((1, 1),)), TooManyCrossings),
            (lambda: BraidWord(2, ((1, huge),)), TooManyCrossings),
            (lambda: BraidWord(3, ((1, cap), (2, -1))), TooManyCrossings),
        ]
        for call, error in calls:
            with pytest.raises(error) as excinfo:
                call()
            assert isinstance(excinfo.value, CuspBoundsError)
            assert len(str(excinfo.value)) < 80
        assert BraidWord(cap + 1, ((1, cap),)).strands == cap + 1

    def test_merge_adjacent(self):
        w = parse_braid("3: s1^2 s1^1 s2^-1")
        assert w.syllables == ((1, 3), (2, -1))

    def test_merge_cancels(self):
        w = parse_braid("3: s1^2 s1^-2 s2^3")
        assert w.syllables == ((2, 3),)

    def test_bad_generator(self):
        with pytest.raises(BadGeneratorIndex):
            parse_braid("3: s5^2")

    def test_zero_exponent(self):
        with pytest.raises(ZeroExponent):
            parse_braid("3: s1^0")

    def test_few_strands(self):
        with pytest.raises(FewerThanTwoStrands):
            parse_braid("1: s1^2")

    def test_malformed(self):
        with pytest.raises(MalformedToken):
            parse_braid("3 s1^2")
        with pytest.raises(MalformedToken):
            parse_braid("3: sigma1")


class TestBraidClosure:
    def test_trefoil_matches_pd(self):
        from cuspbounds import invariants

        closed = braid_closure(parse_braid("2: s1^3"))
        assert closed.c == 3
        ref = parse_pd(TREFOIL)
        inv_c, inv_r = invariants(closed), invariants(ref)
        assert {inv_c["vA"], inv_c["vB"]} == {inv_r["vA"], inv_r["vB"]}
        assert face_degrees(closed) == face_degrees(ref)

    def test_component_count_is_permutation_cycles(self):
        # even exponents everywhere: the underlying permutation is trivial
        with pytest.raises(ClosureIsLink):
            braid_closure(BraidWord(3, ((1, 2), (2, 2))))

    def test_hopf_closure_rejected(self):
        with pytest.raises(ClosureIsLink):
            braid_closure(BraidWord(2, ((1, 2),)))

    def test_two_cycle_word_rejected(self):
        # (1 2)(2 3)(1 2) = (1 3): two cycles, hence a two-component closure
        with pytest.raises(ClosureIsLink):
            braid_closure(parse_braid("3: s1^3 s2^3 s1^3"))

    def test_positive_braid_all_b_circles_match_strand_count(self):
        # calibration: the B-smoothing of a positive closure recovers the
        # braid-strand (Seifert) circles
        from cuspbounds import resolve

        for text in ("2: s1^3", "3: s1^3 s2^3", "4: s1^3 s2^3 s3^3", "3: s1^2 s2^3 s1^3"):
            word = parse_braid(text)
            d = braid_closure(word)
            assert resolve(d, "B" * d.c)[0] == word.strands

    def test_weaving_closures_are_knots(self):
        for k in (2, 4, 5, 7):
            d = braid_closure(weaving_braid(k))
            assert d.c == 2 * k


class TestMirror:
    def test_involution(self):
        for text in (TREFOIL, FIG8, KINK):
            d = parse_pd(text)
            assert mirror(mirror(d)) == d

    def test_mirror_preserves_face_degrees(self):
        d = parse_pd(FIG8)
        assert face_degrees(mirror(d)) == face_degrees(d)

    def test_braid_negation_matches_mirror_invariants(self):
        from cuspbounds import invariants

        word = parse_braid("3: s1^2 s2^3 s1^3")
        inv = invariants(braid_closure(word))
        negated = BraidWord(word.strands, tuple((i, -r) for i, r in word.syllables))
        inv_neg = invariants(braid_closure(negated))
        assert (inv_neg["vA"], inv_neg["vB"]) == (inv["vB"], inv["vA"])
