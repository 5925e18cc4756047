"""Parsing, validation, faces, braids, closures, mirrors."""

import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspbounds
from cuspbounds import parse_pd
from cuspbounds.diagram import (
    BraidWord,
    PlanarDiagram,
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
    closure_pd_text,
    crossing_labels,
    findall_parse_pd,
    mirror,
    pd_text,
    random_braid_word,
    random_knot_diagram,
    traced_bigons,
    traced_faces,
    weaving_braid,
)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
KINK = "X[1,1,2,2]"


def face_degrees(d: PlanarDiagram) -> list[int]:
    return sorted(map(len, traced_faces(d)))


def permutation_cycles(word: BraidWord) -> int:
    """Cycles of the permutation of ``word``, followed position by position."""
    perm = list(range(word.strands))
    for i, r in word.syllables:
        if r % 2:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
    seen, cycles = set(), 0
    for p in range(word.strands):
        cycles += p not in seen
        while p not in seen:
            seen.add(p)
            p = perm[p]
    return cycles


def one_cycle_word(rng: random.Random, strands: int) -> BraidWord:
    """A random word on ``strands`` strands whose closure is a knot."""
    while True:
        syllables, prev = [], 0
        for _ in range(rng.randint(1, 10)):
            choices = [i for i in range(1, strands) if i != prev]
            if not choices:
                break
            prev = rng.choice(choices)
            syllables.append((prev, rng.choice((-1, 1)) * rng.randint(1, 3)))
        word = BraidWord(strands, tuple(syllables))
        if permutation_cycles(word) == 1:
            return word


class TestParsePd:
    def test_trefoil(self):
        d = parse_pd(TREFOIL)
        assert d.c == 3
        assert len(set(d.slots)) == 6
        assert len(traced_faces(d)) == 5

    def test_kink(self):
        d = parse_pd(KINK)
        assert d.c == 1
        assert len(traced_faces(d)) == 3

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

    def test_crossing_cap(self):
        # The cap is checked before any label is converted: with one label past
        # int()'s digit limit, cap tokens reach the conversion (MalformedToken)
        # and cap + 1 tokens do not (TooManyCrossings).
        cap = cuspbounds.diagram.MAX_CROSSINGS
        last = f"X[1,1,1,{'9' * 5000}]"
        with pytest.raises(MalformedToken):
            parse_pd(" ".join(["(1,1,1,1)"] * (cap - 1) + [last]))
        for head in ("(1,1,1,1)", "X[1,1,1,1]"):
            with pytest.raises(TooManyCrossings) as info:
                parse_pd(" ".join([head] * cap + [last]))
            assert info.value.code == "TooManyCrossings"
            assert str(info.value) == f"PD code lists {cap + 1} crossings, more than {cap}"

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

    @pytest.mark.parametrize("text", ["X[1,1,2,2] X[3,3,4,4]", f"{TREFOIL} X[7,7,8,8]"])
    def test_multi_component_is_reported_before_the_face_count(self, text):
        # Two disjoint pieces: two strand components, and more than c + 2
        # faces. The components are reported first.
        slots = tuple(int(label) for label in re.findall(r"\d+", text))
        assert len(traced_faces(SimpleNamespace(slots=slots, c=len(slots) // 4))) > len(slots) // 4 + 2
        with pytest.raises(MultiComponentLink):
            parse_pd(text)

    @pytest.mark.parametrize("components", [2, 3, 4, 5])
    def test_link_closures_report_their_component_count(self, components):
        # Every generator appears, so every position carries darts and each
        # cycle of the permutation is one strand component.
        rng = random.Random(components)
        found = 0
        while found < 20:
            strands = rng.randint(components, components + 3)
            gens = rng.sample(range(1, strands), strands - 1) + rng.choices(range(1, strands), k=2)
            gens = [g for g, prev in zip(gens, [0] + gens) if g != prev]
            word = BraidWord(strands, tuple((g, rng.choice((-1, 1)) * rng.randint(1, 4)) for g in gens))
            if permutation_cycles(word) != components:
                continue
            found += 1
            message = f"^strand trace gives {components} components, expected a knot$"
            with pytest.raises(MultiComponentLink, match=message):
                parse_pd(closure_pd_text(word))

    @pytest.mark.parametrize(
        "text",
        ["X[1,2,1,2]", f"X[8,1,8,7] {TREFOIL.replace('X[1,', 'X[7,')}",
         f"{TREFOIL.replace('X[1,', 'X[7,')} X[8,1,8,7]"],
    )
    def test_straight_through_loop_is_a_component(self, text):
        # Edge 8, and both edges of the lone crossing, join darts d and d ^ 2
        # of one crossing: partner[d] == d ^ 2, a strand of one step.
        slots = tuple(int(label) for label in re.findall(r"\d+", text))
        assert any(slots[d] == slots[d ^ 2] for d in range(len(slots)))
        with pytest.raises(MultiComponentLink, match="^strand trace gives 2 components,"):
            parse_pd(text)

    def test_component_through_over_slots_only_is_counted(self):
        # One component runs through the under slots (even darts) of both
        # crossings, the other through the over slots, all odd darts: walks
        # started from even darts alone would count one component.
        with pytest.raises(MultiComponentLink, match="^strand trace gives 2 components,"):
            parse_pd("X[1,3,2,4] X[2,4,1,3]")

    def test_round_trip(self):
        for text in (TREFOIL, FIG8, KINK):
            d = parse_pd(text)
            assert parse_pd(d.pd_string()) == d


class TestPdTokenRuns:
    """``parse_pd`` matches the grammar with one possessive repetition; the
    ``genutil`` oracle with a plain greedy one. Around 1,000 and 2,000 tokens,
    where an earlier parser split the text into runs, both must accept the same
    texts and report an error at the same position."""

    FORMS = ("X[%s]", "x [%s]", "(%s)")
    SEPARATORS = (" ", ", ", ",", "\n")

    @classmethod
    def dressed(cls, text: str, shift: int = 0) -> str:
        """``X[...]`` PD text rewritten token by token in every form and after
        every separator, the pattern shifted by ``shift`` tokens."""
        bodies = re.findall(r"\[([\d,]+)\]", text)
        return "".join(cls.FORMS[(i + shift) % 3] % body + cls.SEPARATORS[(i + shift) % 4]
                       for i, body in enumerate(bodies)).rstrip()

    @pytest.mark.parametrize("c", [999, 1000, 1001, 2000])
    def test_valid_texts_across_run_boundaries(self, c):
        # s1^c closes to a knot for odd c; s1^(c-1) s2 for even c.
        word = BraidWord(2, ((1, c),)) if c % 2 else BraidWord(3, ((1, c - 1), (2, 1)))
        for shift in range(12):
            text = self.dressed(closure_pd_text(word), shift)
            parsed = parse_pd(text)
            assert parsed.c == c
            assert parsed.slots == findall_parse_pd(text)

    @pytest.mark.parametrize("index", [0, 999, 1000, 1001, 2000, 2499, 2500])
    @pytest.mark.parametrize("bad", ["X[1,2,3]", "( 7", "x[1,2,3,4,5]", "X[1,-2,3,4]", "Y[1,2,3,4]"])
    def test_bad_token_across_run_boundaries(self, index, bad):
        # 2,500 tokens with one bad token at ``index`` (2,500: after the last)
        tokens = [self.FORMS[i % 3] % f"{i},{i + 1},{i + 2},{i + 3}" for i in range(1, 2501)]
        tokens.insert(index, bad)
        text = "".join(t + self.SEPARATORS[i % 4] for i, t in enumerate(tokens)).rstrip()
        pos = sum(len(t) + len(self.SEPARATORS[i % 4]) for i, t in enumerate(tokens[:index]))
        assert text[pos:].startswith(bad)
        message = f"unrecognized PD token at: {text[pos:pos + 20]!r}"
        for parse in (findall_parse_pd, parse_pd):
            with pytest.raises(MalformedToken) as excinfo:
                parse(text)
            assert str(excinfo.value) == message

    # Canonical text, as pd_string writes it, takes a strict scan; one odd token
    # sends it down the general path. 641 digits are one past the strict cap.
    ODD_TOKENS = ["leading zero", "long label", "x[", "double space", "comma", "X[1,2,3]",
                  "( 7", "x[1,2,3,4,5]", "X[1,-2,3,4]", "Y[1,2,3,4]"]

    @pytest.mark.parametrize("c", [999, 2000])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("odd", ODD_TOKENS)
    def test_canonical_text_with_one_odd_token(self, c, where, odd):
        word = BraidWord(2, ((1, c),)) if c % 2 else BraidWord(3, ((1, c - 1), (2, 1)))
        tokens = closure_pd_text(word).split(" ")
        i = {"first": 0, "middle": c // 2, "last": c - 1}[where]
        separators = [" "] * (c - 1) + [""]
        if odd == "leading zero":
            tokens[i] = tokens[i].replace("[", "[0")
        elif odd == "long label":  # both ends of the token's first edge
            label = re.match(r"X\[(\d+)", tokens[i]).group(1)
            long = label.rjust(641, "7")
            tokens = [re.sub(rf"\b{label}\b", long, t) for t in tokens]
        elif odd == "x[":
            tokens[i] = "x" + tokens[i][1:]
        elif odd in ("double space", "comma"):
            separators[min(i, c - 2)] = "  " if odd == "double space" else ", "
        else:
            tokens[i] = odd
        text = "".join(map(str.__add__, tokens, separators))
        try:
            expected = findall_parse_pd(text)
        except CuspBoundsError as exc:
            with pytest.raises(type(exc)) as excinfo:
                parse_pd(text)
            assert str(excinfo.value) == str(exc)
        else:
            assert parse_pd(text).slots == expected

    def test_canonical_text_never_uses_the_general_grammar(self, monkeypatch):
        def general_grammar():
            raise AssertionError("general grammar used")

        monkeypatch.setattr(cuspbounds.diagram, "_pd_tokens", general_grammar)
        rng = random.Random(2718)
        for _ in range(200):
            d = random_knot_diagram(rng, 16)
            assert parse_pd(d.pd_string()) == d
        weave = braid_closure(weaving_braid(10_000))
        assert parse_pd(weave.pd_string()) == weave
        cap = cuspbounds.diagram.MAX_CROSSINGS
        with pytest.raises(TooManyCrossings, match=f"^PD code lists {cap + 1} crossings"):
            parse_pd(" ".join(["X[1,1,1,1]"] * (cap + 1)))
        for text in ("(1,4,2,5) (3,6,4,1) (5,2,6,3)", TREFOIL.replace(" ", "  "),
                     TREFOIL.replace("[1,", "[01,"), TREFOIL.replace("X", "x"),
                     TREFOIL + ",", "X[1,2,3]", TREFOIL.replace("6", "٦")):
            with pytest.raises(AssertionError, match="general grammar used"):
                parse_pd(text)

    def test_strict_label_cap_holds_under_the_lowest_int_digit_limit(self):
        # No int() digit limit can be set below 640, so every label the strict
        # scan pairs as written is one the general path would pair as written.
        with pytest.raises(ValueError):
            sys.set_int_max_str_digits(639)
        texts = {n: re.sub(r"\b1\b", "1".rjust(n, "9"), TREFOIL) for n in (640, 641)}
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert parse_pd(texts[640]) == parse_pd(TREFOIL)
            with pytest.raises(MalformedToken, match="more digits than int"):
                parse_pd(texts[641])
        finally:
            sys.set_int_max_str_digits(old)
        assert parse_pd(texts[641]) == parse_pd(TREFOIL)

    def test_peak_memory_of_a_large_parse(self):
        # A greedy whole-text match keeps about 1 KB of regex state per
        # crossing, a 21 MB peak at c = 20,000; the possessive match keeps none.
        text = closure_pd_text(weaving_braid(10_000))
        tracemalloc.start()
        try:
            diagram = parse_pd(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diagram.c == 20_000
        assert peak < 15_000_000, f"parse_pd peaked at {peak / 1e6:.1f} MB"


# Label errors in ASCII text, whose labels parse_pd pairs as written unless
# one is 0; tuples are written as PD text.
LABEL_ERRORS = [
    ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,7]", EdgeLabelUsedOtherThanTwice,
     "edge labels not used exactly twice: [5, 7]"),
    ("X[1,1,1,2] X[2,3,3,4]", EdgeLabelUsedOtherThanTwice,
     "edge labels not used exactly twice: [1, 4]"),
    ("X[1,1,1,1] X[2,2,3,3]", EdgeLabelUsedOtherThanTwice,
     "edge labels not used exactly twice: [1]"),
    ("X[0,1,1,0]", MalformedToken, "edge labels must be positive"),
    # Sparse labels are named by their ranks in order of first
    # appearance, the numbers slots gives them, not as written.
    ((10, 40, 20, 50, 30, 60, 40, 10, 50, 20, 60, 70), EdgeLabelUsedOtherThanTwice,
     "edge labels not used exactly twice: [5, 7]"),
    ((10, 40, 20, 50, 30, 60, 40, 10, 50, 20, 60, 30, 10, 20, 30, 40),
     EdgeLabelUsedOtherThanTwice, "edge labels not used exactly twice: [1, 2, 3, 5]"),
    ((1, 4, 2, 5, 3, 6, 4, 1, 5, 2, 6, 3, 7, 7, 7, 7), EdgeLabelUsedOtherThanTwice,
     "edge labels not used exactly twice: [7]"),
    ((1, 4, 2, 5, 3, 6, 0, 1), MalformedToken, "edge labels must be positive"),
    # 90 (thrice) and 70 (once) come last: they are named by their
    # ranks 7 and 8 in order of first appearance, not as written
    ("X[10,40,20,50] X[30,60,40,10] X[50,20,60,90] X[90,90,30,70]",
     EdgeLabelUsedOtherThanTwice, "edge labels not used exactly twice: [7, 8]"),
]
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def respelled(cases):
    """Each case again in Arabic-Indic digits and with a zero before every
    label, which parse_pd reads through int(): same values, same errors."""
    for source, error, message in cases:
        text = source if isinstance(source, str) else pd_text(source)
        yield text.translate(_ARABIC_INDIC), error, message
        yield re.sub(r"\d+", r"0\g<0>", text), error, message


class TestFlatLabels:
    """Edge labels: the checks on PD labels, and the ``slots`` view of a diagram."""

    # The respelled twins come last, so that the ASCII cases keep their ids.
    @pytest.mark.parametrize("source, error, message", LABEL_ERRORS + list(respelled(LABEL_ERRORS)))
    def test_label_errors(self, source, error, message):
        # Tuples are written as PD text first, as given.
        with pytest.raises(error) as excinfo:
            parse_pd(source if isinstance(source, str) else pd_text(source))
        assert str(excinfo.value) == message

    def test_a_leading_zero_after_any_ascii_whitespace_is_read_as_int(self):
        # Labels are paired as written only with no leading zero, which parse_pd
        # finds once every ASCII whitespace character has become a space.
        for space in filter(str.isspace, map(chr, range(128))):
            assert parse_pd(f"X[1,4,2,5] X[3,6,4,{space}01] X[5,2,6,3]") == parse_pd(TREFOIL)

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
                assert parse_pd(text).slots == expected, text
        assert outcomes >= {"ok", "MalformedToken", "EdgeLabelUsedOtherThanTwice"}


class TestRelabelPass:
    """Parsing pairs the labels as written and numbers edges off that pairing;
    the ``genutil`` oracles number labels by first appearance and trace faces
    on (crossing, slot) tuples, and the test pairs darts with a dict."""

    @staticmethod
    def scrambled_text(d: PlanarDiagram, rng: random.Random) -> str:
        """PD text of ``d`` with sparse shuffled labels, some with leading
        zeros, in mixed ``X[...]``, ``x [...]`` and ``(...)`` tokens."""
        names = rng.sample(range(1, 100 * d.c), 2 * d.c)
        tokens = []
        for labels in crossing_labels(d):
            body = ",".join("0" * rng.randrange(3) + str(names[x - 1]) for x in labels)
            tokens.append(rng.choice(("X[%s]", "x [%s]", "(%s)", "X(%s]")) % body)
        return "".join(t + rng.choice(("", " ", ", ", "\n")) for t in tokens)

    @staticmethod
    def check(d: PlanarDiagram, text: str) -> None:
        slots = d.slots
        darts: dict[int, list[int]] = {}
        for dart, label in enumerate(slots):
            darts.setdefault(label, []).append(dart)
        partner = [0] * len(slots)
        for a, b in darts.values():
            partner[a], partner[b] = b, a
        assert (d.partner, (d.bigons, d.clasp)) == (tuple(partner), traced_bigons(d))
        # the given text, and the canonical text that takes the strict scan
        for text in (text, d.pd_string()):
            assert findall_parse_pd(text) == slots, text[:80]
            parsed = parse_pd(text)
            assert (parsed.slots, parsed.partner, parsed.bigons, parsed.clasp) == (
                slots, d.partner, d.bigons, d.clasp), text[:80]

    def test_random_diagrams_from_scrambled_text(self):
        rng = random.Random(5150)
        for _ in range(300):
            d = random_knot_diagram(rng, 16)
            self.check(d, self.scrambled_text(d, rng))
        assert parse_pd("(001,4,02,5),X[3,6,004,1]x [5,2,0006,3]") == parse_pd(TREFOIL)

    @st.composite
    def diagrams(draw):
        """A random braid closure, as built or parsed back from scrambled PD
        text or mirrored, with the generator that drew it."""
        rng = random.Random(draw(st.integers(0, 2**32)))
        d = random_knot_diagram(rng, draw(st.integers(3, 24)))
        form = draw(st.sampled_from(["braid", "pd", "mirror"]))
        if form == "pd":
            d = parse_pd(TestRelabelPass.scrambled_text(d, rng))
        elif form == "mirror":
            d = mirror(d)
        return d, rng

    @settings(max_examples=200, deadline=None)
    @given(first=diagrams(), second=diagrams(), same=st.booleans())
    def test_slots_are_numbered_by_first_dart(self, first, second, same):
        (a, rng), (b, _) = first, second
        if same:  # the same diagram from other PD text
            b = parse_pd(self.scrambled_text(a, rng))
        for d in (a, b):
            slots = d.slots
            assert [label for dart, label in enumerate(slots) if d.partner[dart] > dart] == list(
                range(1, 2 * d.c + 1))
            assert all(slots[p] == label for label, p in zip(slots, d.partner))
            assert parse_pd(d.pd_string()) == d
        assert (a.slots == b.slots) == (a == b) == (hash(a) == hash(b))
        assert a == b or not same

    def test_braid_closures_up_to_two_thousand_crossings(self):
        rng = random.Random(6174)
        words = [weaving_braid(1000)]
        while len(words) < 6:
            strands = rng.randint(3, 6)
            syllables, prev = [], 0
            while sum(abs(r) for _, r in syllables) < 1990:
                prev = rng.choice([i for i in range(1, strands) if i != prev])
                syllables.append((prev, rng.choice((-1, 1)) * rng.randint(1, 5)))
            word = BraidWord(strands, tuple(syllables))
            if word.closure_component_count() == 1:
                words.append(word)
        for word in words:
            d = braid_closure(word)
            assert 1990 <= d.c <= 2000
            self.check(d, d.pd_string())
            self.check(d, self.scrambled_text(d, rng))


class TestFaces:
    def test_trefoil_faces(self):
        d = parse_pd(TREFOIL)
        assert face_degrees(d) == [2, 2, 2, 3, 3]
        assert (d.bigons, d.clasp) == traced_bigons(d) == (3, None)

    def test_fig8_faces(self):
        d = parse_pd(FIG8)
        assert face_degrees(d) == [2, 2, 3, 3, 3, 3]
        assert (d.bigons, d.clasp) == traced_bigons(d) == (2, None)

    def test_kink_faces(self):
        d = parse_pd(KINK)
        assert face_degrees(d) == [1, 1, 2]
        # the degree-2 face sits at a single crossing, so it is no bigon
        assert (d.bigons, d.clasp) == traced_bigons(d) == (0, None)

    def test_euler_and_degree_sum_on_random_diagrams(self):
        rng = random.Random(20240811)
        for _ in range(60):
            d = random_knot_diagram(rng, 12)
            boundaries = traced_faces(d)
            assert len(boundaries) == d.c + 2
            assert sum(map(len, boundaries)) == 4 * d.c


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
            ("3_0: s1^3 s2^-3", MalformedToken, "bad strand count '3_0'"),
            ("+3: s1^3 s2^-3", MalformedToken, "bad strand count '+3'"),
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
            (lambda: BraidWord(huge, ((1, 1),)), TooManyCrossings),
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

    @pytest.mark.parametrize(
        "strands, syllables, error, message",
        [
            (3, ((1, 0),), ZeroExponent, "syllable 's1^0' has exponent zero"),
            (10**30, ((1, 1),), TooManyCrossings, "strand count '10000000000000000000' exceeds 100001"),
            (3, ((2, 1), (3, 1)), BadGeneratorIndex, "generator s3 outside 1..2"),
        ],
    )
    def test_built_words_report_as_parsed_words_do(self, strands, syllables, error, message):
        with pytest.raises(error) as excinfo:
            BraidWord(strands, syllables)
        assert str(excinfo.value) == message

    def test_braid_word_merges_adjacent_syllables(self):
        assert BraidWord(3, [(1, 2), (1, 1), (2, -1)]).syllables == ((1, 3), (2, -1))
        # a merge that cancels drops the syllable, and merging goes on across it
        word = BraidWord(3, iter([(2, 1), (1, 2), (1, -2), (2, 2), (1, 1)]))
        assert word.syllables == ((2, 3), (1, 1))
        for syllables in ([(1, 2), (1, -2)], [(2, 1), (1, 3), (1, -3), (2, -1)]):
            with pytest.raises(MalformedToken) as excinfo:
                BraidWord(3, syllables)
            assert str(excinfo.value) == "braid word cancels to the empty word"
        with pytest.raises(MalformedToken) as excinfo:
            BraidWord(3, ())
        assert str(excinfo.value) == "braid word has no syllables"

    @settings(max_examples=200, deadline=None)
    @given(strands=st.integers(2, 4),
           syllables=st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=10))
    def test_parse_braid_is_the_braid_word_of_its_syllables(self, strands, syllables):
        # Few generators, so that adjacent syllables often share one; outside
        # indices and zero exponents as well. Reading the text adds nothing.
        def outcome(call):
            try:
                return call()
            except CuspBoundsError as exc:
                return exc.code, str(exc)

        text = f"{strands}: " + " ".join(f"s{i}^{r}" for i, r in syllables)
        assert outcome(lambda: parse_braid(text)) == outcome(lambda: BraidWord(strands, syllables))

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

    def test_one_cycle_closures_trace_one_strand(self):
        # A closure skips validation's strand walk once its permutation is one
        # cycle. Joining the labels on slots 0 and 2, and on slots 1 and 3, of
        # each crossing (a union-find over labels) gives one strand as well.
        rng = random.Random(2718)
        for _ in range(300):
            word = random_braid_word(rng, 30)
            if word.closure_component_count() != 1:
                continue
            d = braid_closure(word)
            root = {label: label for label in d.slots}

            def find(x):
                while root[x] != x:
                    root[x] = x = root[root[x]]
                return x

            for a, b, c, e in crossing_labels(d):
                root[find(a)] = find(c)
                root[find(b)] = find(e)
            assert len({find(label) for label in d.slots}) == 1

    def test_closures_match_their_pd_text(self):
        # closure_pd_text labels the edges of the stacked crossings where
        # braid_closure pairs darts; parsing that text gives the same diagram.
        rng = random.Random(4711)
        words = [BraidWord(2, ((1, r),)) for r in (1, -1, 3, -5)]
        while len(words) < 500:
            strands = rng.randint(2, 6)
            if strands > 2 and rng.random() < 0.3:
                # position ``strands`` is first touched by the last syllable
                head = one_cycle_word(rng, strands - 1).syllables
                last = (strands - 1, rng.choice((-1, 1)) * rng.choice((1, 3)))
                words.append(BraidWord(strands, head + (last,)))
            else:
                words.append(one_cycle_word(rng, strands))
        assert any(r < 0 for word in words for _, r in word.syllables)
        for word in words:
            closed, parsed = braid_closure(word), parse_pd(closure_pd_text(word))
            assert closed.slots == parsed.slots
            assert closed.partner == parsed.partner
            assert (closed.bigons, closed.clasp) == (parsed.bigons, parsed.clasp) \
                == traced_bigons(closed)

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
