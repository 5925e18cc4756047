"""Combinatorial planar knot diagrams: PD codes, braid closures, faces.

A diagram is its edge involution on integer darts ``d = 4 * ci + si``
(crossing index, slot). Each crossing lists its four slots counterclockwise
starting from the incoming under-strand, so slots 0 and 2 carry the
under-strand and slots 1 and 3 the over-strand. The slot order doubles as the
rotation system: it is all the embedding data needed to trace strands and
traverse faces, and planarity is enforced through the Euler count (a
connected knot diagram on the sphere has exactly c + 2 faces).

``parse_pd`` does not check that slot 0 is the incoming end of the
under-strand: it reads a crossing turned by 180 degrees, ``X[c,d,a,b]`` for
``X[a,b,c,d]``, as well. No current output depends on that direction, since
the turn keeps the cyclic order and so both smoothings, as
``tests/test_pipeline.py::TestTurnedCrossings`` checks.

Two involutions generate everything:

* ``across``    -- ``d ^ 2``, the strand running straight through a crossing;
* ``partner``   -- the other dart of the same edge, one flat list built in
                   one pass over the PD labels or the braid word.

Strand components are the orbits of both involutions: the diagram is a knot
when the walk ``d -> partner[d ^ 2]`` from dart 0 takes 2c steps. Faces are
the cycles of turn-left, "rotate after partner" (``(p & ~3) | ((p + 1) & 3)``
for ``p = partner[d]``), and the face walk follows its inverse, which has the
same cycles. As it closes each degree-2 face it counts the alternating bigons
and keeps the crossing pair of the first non-alternating one (a clasp), which
is all the twist count needs. It keeps no object per face: thousands of
containers alive at once would start cyclic garbage collections, each of which
traverses the young 4c-long lists again.

PD text is checked by one of two grammars, each with one label rule:
canonical text, the exact form ``pd_string`` writes, by a strict one whose
full match also proves every label canonical, and its labels are paired as
written; any other text by the general one, and its labels are read by
``int()``. Canonical labels are equal as strings exactly when they are equal
as ints, so no pairing and no error depends on the path.

Parsing keeps only the pairing of the labels; a braid closure pairs its
darts as it stacks the crossings. Edge labels are derived when asked for
(``PlanarDiagram.slots``), each edge numbered 1..2c by its first dart.

Braid closures are emitted so that a positive generator takes the strand
entering from the higher-numbered position underneath. With that chirality
the all-B smoothing of a positive braid closure reproduces the braid-strand
(Seifert) circles, which is the calibration the state machinery relies on.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from functools import cache

from .errors import (
    BadGeneratorIndex,
    ClosureIsLink,
    EdgeLabelUsedOtherThanTwice,
    EmptyDiagram,
    FewerThanTwoStrands,
    MalformedToken,
    MultiComponentLink,
    NonPlanarDiagram,
    TooManyCrossings,
    ZeroExponent,
    cut,
    read_int,
)

# Crossings a PD code may list, or a braid word ask for (counted as the sum of
# |r| over its syllables as written). Traced peaks per crossing on the c = 20k
# weave: 0.47 KB to parse canonical PD text, 0.4 KB its tuple form, and 0.3 KB
# to parse the braid word and build its closure.
MAX_CROSSINGS = 100_000


def _pair_darts(labels: Sequence[int | str]) -> list[int]:
    """The involution pairing the two darts that carry each edge label, built in
    one pass over the labels, which are compared as given. The first few labels
    used other than twice are named by their rank in order of first appearance,
    the number ``PlanarDiagram.slots`` gives them."""
    partner = [-1] * len(labels)
    first: dict[int | str, int] = {}
    for d, label in enumerate(labels):
        other = first.setdefault(label, d)
        if other != d:
            partner[d], partner[other] = other, d
    # With every dart paired each label is used at least twice, and then exactly
    # twice when there are half as many labels as darts.
    if -1 in partner or 2 * len(first) != len(labels):
        # Counter keeps the order of first appearance.
        bad = [i for i, k in enumerate(Counter(labels).values(), 1) if k != 2]
        more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
        raise EdgeLabelUsedOtherThanTwice(f"edge labels not used exactly twice: {bad[:5]}{more}")
    return partner


class PlanarDiagram:
    """A validated one-component 4-valent diagram with rotation system: the edge
    involution ``partner`` on darts, the number ``bigons`` of alternating bigon
    faces, and ``clasp``, the crossing pair of the first non-alternating bigon
    in face-walk order (``None`` when there is none).
    Only :func:`parse_pd` and :func:`braid_closure` build one. Immutable;
    equality and hash use ``partner`` alone, the same relation as comparing
    ``slots``, which is numbered from it."""

    def __init__(self, *_, **__) -> None:
        raise TypeError("PlanarDiagram has no public constructor; use parse_pd or braid_closure")

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: PlanarDiagram is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.partner == other.partner if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.partner)

    def __repr__(self) -> str:
        return f"PlanarDiagram(slots={self.slots!r})"

    @property
    def c(self) -> int:
        return len(self.partner) // 4

    @property
    def slots(self) -> tuple[int, ...]:
        """Four edge labels per crossing, so dart ``d`` carries ``slots[d]``: each
        edge numbered 1..2c by its first dart. Built anew on every call."""
        slots = [0] * len(self.partner)
        k = 0
        for d, p in enumerate(self.partner):
            if p > d:
                k += 1
                slots[d] = slots[p] = k
        return tuple(slots)

    def pd_string(self) -> str:
        """Canonical PD text; round-trips through :func:`parse_pd`."""
        return " ".join(["X[%d,%d,%d,%d]"] * self.c) % self.slots


def _validated(partner: list[int], one_component: bool = False) -> PlanarDiagram:
    """The diagram whose edges are the dart pairs of ``partner``, once they form
    one strand with c + 2 faces. ``one_component`` skips the strand walk for a
    pairing known to be one strand (a one-cycle braid closure)."""
    c = len(partner) // 4
    if not one_component:
        # Through a crossing, then along an edge: two darts a step, so a knot's
        # one strand takes 2c steps.
        d, steps = partner[2], 1
        while d:
            d = partner[d ^ 2]
            steps += 1
        if steps != 2 * c:
            # Each component is two cycles of d -> partner[d ^ 2], one each way.
            seen = bytearray(4 * c)
            cycles = 0
            for start in range(4 * c):
                if not seen[start]:
                    cycles += 1
                    d = start
                    while not seen[d]:
                        seen[d] = 1
                        d = partner[d ^ 2]
            raise MultiComponentLink(f"strand trace gives {cycles // 2} components, expected a knot")
    # Faces are the cycles of turn-left (cross the edge, rotate one slot counterclockwise)
    # and of its inverse: ``partner`` at the slot before d. A walk marks back[d] = -1.
    back = partner.copy()
    back[1::4], back[2::4], back[3::4], back[0::4] = (
        partner[0::4], partner[1::4], partner[2::4], partner[3::4])
    faces = bigons = 0
    clasp = None
    for start, d in enumerate(back):
        if d < 0:
            continue
        faces += 1
        # A face of two darts at two crossings is a bigon; its strands alternate
        # when both darts are under slots (even) or both over slots (odd).
        if back[d] == start and d ^ start > 3:
            if not (d ^ start) & 1:
                bigons += 1
            elif clasp is None:
                clasp = (start >> 2, d >> 2)
        while d != start:
            back[d], d = -1, back[d]
    if faces != c + 2:
        raise NonPlanarDiagram(f"face traversal gives {faces} faces, expected c + 2 = {c + 2}")
    diagram = PlanarDiagram.__new__(PlanarDiagram)
    # Written past __setattr__, which refuses every assignment.
    diagram.__dict__.update(partner=tuple(partner), bigons=bigons, clasp=clasp)
    return diagram


# --------------------------------------------------------------------------
# PD-code text
# --------------------------------------------------------------------------

# Canonical text, as ``pd_string`` writes it: ``X[a,b,c,d]`` tokens separated
# by single spaces. A label is ASCII digits with no leading zero, at most 640 of
# them: no int() digit limit can be lower (sys.int_info.str_digits_check_threshold),
# so int() converts every such label, and both paths raise the same errors. Every
# quantifier is possessive, so a full match keeps no backtracking state.
_CANONICAL_PD = re.compile(r"X\[L,L,L,L\](?: X\[L,L,L,L\])*+".replace("L", "[1-9][0-9]{0,639}+"))


@cache  # compiled on first use: canonical text never needs it
def _pd_tokens() -> re.Pattern[str]:
    """The general grammar: whole tokens, each with its trailing separators;
    whitespace before a bracket is allowed only after an X. The possessive
    ``*+`` keeps no backtracking state between tokens, so ``match`` ends at the
    first bad token in constant memory. Inside a token every quantifier is
    possessive too: each run is followed by a character it cannot match, so
    giving some of it back never helps."""
    return re.compile(
        r"(?:(?:[Xx]\s*+)?+[\[\(]\s*+\d++\s*+,\s*+\d++\s*+,\s*+\d++\s*+,\s*+\d++\s*+[\]\)][\s,]*+)*+"
    )


_TO_SPACES = str.maketrans(dict.fromkeys("Xx[](),", " "))


def parse_pd(text: str) -> PlanarDiagram:
    """Parse PD-code text like ``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]``.

    Tuples may also be written ``(a,b,c,d)`` and separated by whitespace
    and/or commas. Edge labels are normalized to 1..2c on parse. Text listing
    more than ``MAX_CROSSINGS`` crossings raises ``TooManyCrossings`` before
    any label is converted.

    Text in the exact form :meth:`PlanarDiagram.pd_string` writes takes one
    strict scan, which proves the grammar and every label canonical (ASCII
    digits, no leading zero, at most 640 of them). Such labels name the same
    edge exactly when they are the same string, so they are paired as
    written. Any other text meets the general grammar, and its labels are
    converted by ``int()``, which reads every Unicode decimal digit.
    """
    stripped = text.strip()
    if not stripped:
        raise EmptyDiagram("no crossings in input")
    canonical = _CANONICAL_PD.fullmatch(stripped) is not None
    if canonical:
        crossings = stripped.count("[")
    else:
        pos = _pd_tokens().match(stripped).end()
        if pos < len(stripped):
            raise MalformedToken(f"unrecognized PD token at: {stripped[pos:pos + 20]!r}")
        # Every token of the grammar opens with one bracket.
        crossings = stripped.count("[") + stripped.count("(")
    if crossings > MAX_CROSSINGS:
        raise TooManyCrossings(f"PD code lists {crossings} crossings, more than {MAX_CROSSINGS}")
    # The grammar leaves only edge labels, four per token, once its brackets,
    # commas and X marks turn into spaces: split() cuts at every whitespace
    # character the grammar's \s accepts.
    labels = stripped.translate(_TO_SPACES).split()
    if not canonical:
        try:
            labels = list(map(int, labels))
        except ValueError:  # a label with more digits than int() converts
            raise MalformedToken("an edge label has more digits than int() converts") from None
        if min(labels) < 1:
            raise MalformedToken("edge labels must be positive")
    return _validated(_pair_darts(labels))


# --------------------------------------------------------------------------
# Braid words
# --------------------------------------------------------------------------

class BraidWord(namedtuple("BraidWord", "strands syllables")):
    """A braid word as (generator index, nonzero exponent) syllables, no two
    adjacent ones on the same generator."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, strands: int, syllables: Iterable[tuple[int, int]]) -> BraidWord:
        """Check and merge ``syllables`` in one pass. Adjacent syllables on one
        generator are merged, and a merge that cancels drops the syllable. The
        first syllable past ``MAX_CROSSINGS`` crossings, counted as written, raises
        ``TooManyCrossings`` before the rest is read."""
        if strands < 2:
            raise FewerThanTwoStrands(f"need at least 2 strands, got {cut(strands)}")
        # A knot closure on n strands has at least n - 1 crossings.
        if strands > MAX_CROSSINGS + 1:
            raise TooManyCrossings(f"strand count {cut(strands)!r} exceeds {MAX_CROSSINGS + 1}")
        merged: list[tuple[int, int]] = []
        crossings = 0
        for i, r in syllables:
            if r == 0:
                raise ZeroExponent(f"syllable {cut(f's{cut(i)}^0')!r} has exponent zero")
            if not 0 < i < strands:
                raise BadGeneratorIndex(f"generator s{cut(i)} outside 1..{strands - 1}")
            crossings += abs(r)
            if crossings > MAX_CROSSINGS:
                raise TooManyCrossings(f"braid word asks for more than {MAX_CROSSINGS} crossings")
            if merged and merged[-1][0] == i:
                r += merged.pop()[1]
                if r == 0:
                    continue
            merged.append((i, r))
        if not merged:
            raise MalformedToken("braid word cancels to the empty word" if crossings
                                 else "braid word has no syllables")
        return tuple.__new__(cls, (strands, tuple(merged)))

    def closure_component_count(self) -> int:
        """Components of the closure: the cycles of the permutation the word
        takes positions through, walked once, marking each visited position -1."""
        perm = list(range(self.strands))
        for i, r in self.syllables:
            if r & 1:
                perm[i - 1], perm[i] = perm[i], perm[i - 1]
        cycles = 0
        for s in range(self.strands):
            if perm[s] >= 0:
                cycles += 1
                while perm[s] >= 0:
                    perm[s], s = -1, perm[s]
        return cycles

    def closure_is_prime(self) -> bool:
        """Whether a reduced closure diagram is prime: no s_j, s_j+1 (1 <= j <= n - 2)
        form one block each in the cyclic word, which is to change 1 or 2 times as
        written. One pass counts the changes within each pair."""
        n = self.strands
        last, changes = [0] * n, [0] * n
        for g, _ in self.syllables:
            for j in (g - 1, g):  # the pairs s_j, s_j+1 that hold s_g
                changes[j] += last[j] not in (0, g)
                last[j] = g
        return all(changes[j] not in (1, 2) for j in range(1, n - 1))


_BRAID_SYLLABLE = re.compile(r"s(\d+)\^(-?\d+)$")


def _read_syllables(tokens: list[str]) -> Iterable[tuple[int, int]]:
    """Each token as (generator index, exponent), read only when asked for."""
    for tok in tokens:
        m = _BRAID_SYLLABLE.match(tok)
        if m is None:
            raise MalformedToken(f"unrecognized braid syllable {cut(tok)!r}")
        index, power = m.groups()
        # int() refuses more than 4,300 digits, far past both limits.
        try:
            i = int(index)
        except ValueError:
            raise BadGeneratorIndex(f"generator index of {len(index)} digits") from None
        try:
            r = int(power)
        except ValueError:
            raise TooManyCrossings(f"exponent of {len(power)} digits exceeds {MAX_CROSSINGS}") from None
        yield i, r


def parse_braid(text: str) -> BraidWord:
    """Parse braid text like ``3: s1^3 s2^-3`` (strand count, then syllables).

    Reading only: :class:`BraidWord` checks and merges the syllables as they
    are read, so a text is refused at its first fault, whether in grammar or
    in a syllable.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise MalformedToken("braid text must look like 'n: s1^2 s2^-1 ...'")
    try:
        strands = read_int(head)
    except ValueError:
        raise MalformedToken(f"bad strand count {cut(head.strip())!r}") from None
    return BraidWord(strands, _read_syllables(body.split()))


def braid_closure(word: BraidWord) -> PlanarDiagram:
    """Close a braid into a knot diagram; rejects multi-component closures.

    Crossings are stacked top to bottom in word order. A positive generator
    crosses the strand from position i over the strand from position i + 1;
    in slot terms (counterclockwise from the incoming under-strand) a
    positive crossing reads (NE, NW, SW, SE) and a negative one
    (NW, SW, SE, NE), where NW/NE are the incoming edges at positions
    i/i + 1 and SW/SE the outgoing ones.
    """
    n_comp = word.closure_component_count()
    if n_comp != 1:
        raise ClosureIsLink(f"closure has {n_comp} components, expected a knot")
    n = word.strands
    end = 4 * sum(abs(r) for _, r in word.syllables)
    # Each in-dart pairs with the dart that last left its position; at first
    # that is dart end + p, a stand-in that keeps position p's first in-dart.
    partner = [0] * (end + n)
    last = list(range(end, end + n))
    d = 0
    for i, r in word.syllables:  # s_i crosses positions i - 1 and i, counted from 0
        for _ in range(r):  # in from i, in from i - 1, out to i - 1, out to i
            x, y = last[i], last[i - 1]
            partner[d], partner[x], partner[d + 1], partner[y] = x, d, y, d + 1
            last[i - 1], last[i] = d + 2, d + 3
            d += 4
        for _ in range(-r):  # in from i - 1, out to i - 1, out to i, in from i
            x, y = last[i - 1], last[i]
            partner[d], partner[x], partner[d + 3], partner[y] = x, d, y, d + 3
            last[i - 1], last[i] = d + 1, d + 2
            d += 4
    # Closing arcs join each position's last out-dart to its first in-dart. With
    # one cycle the word touches every position, and the closure is one strand.
    for x, y in zip(last, partner[end:]):
        partner[x], partner[y] = y, x
    del partner[end:]
    return _validated(partner, one_component=True)

