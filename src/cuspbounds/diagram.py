"""Combinatorial planar knot diagrams: PD codes, braid closures, faces.

A diagram is one flat tuple of edge labels, four per 4-valent crossing.
Each crossing lists its four incident edge labels counterclockwise starting
from the incoming under-strand, so slots 0 and 2 carry the under-strand and
slots 1 and 3 the over-strand. The slot order doubles as the rotation
system: it is all the embedding data needed to trace strands and traverse
faces, and planarity is enforced through the Euler count (a connected knot
diagram on the sphere has exactly c + 2 faces).

Darts are integers ``d = 4 * ci + si`` (crossing index, slot). Two
involutions generate everything:

* ``across``    -- ``d ^ 2``, the strand running straight through a crossing;
* ``partner``   -- the dart carrying the other occurrence of the same edge
                   label, one flat list built in a single pass over the slots.

Strand components are the orbits of the group generated by both involutions;
faces are the orbits of "rotate after partner" (``p = partner[d]``, then
``(p & ~3) | ((p + 1) & 3)``), the usual turn-left rule for combinatorial
maps. Each is counted by one walk over the darts. The face walk keeps only
the dart pairs of the degree-2 faces, no list per face: c + 2 lists alive at
once would start cyclic garbage collections, and each would scan them.

Parsing renumbers the labels 1..2c in order of first appearance. One pass
over the labels as written gives both ``partner`` and that order, so the
renumbered slots are not paired again. A diagram built directly from
``slots`` keeps its labels and pairs them itself.

Braid closures are emitted so that a positive generator takes the strand
entering from the higher-numbered position underneath. With that chirality
the all-B smoothing of a positive braid closure reproduces the braid-strand
(Seifert) circles, which is the calibration the state machinery relies on.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from collections.abc import Sequence

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
)

# Crossings a PD code may list, or a braid word ask for (counted as the sum of
# |r| over its syllables as written); about 1 KB of memory per crossing.
MAX_CROSSINGS = 100_000
# int() and str() convert numbers of at most 4,300 digits.
_STR_LIMIT = 10**4300


def _cut(n: int) -> str:
    """``n`` cut to 20 characters, without asking str() for more than 4,300 digits."""
    return str(n)[:20] if abs(n) < _STR_LIMIT else "<over 4300 digits>"


def _pair_darts(labels: Sequence[int], renumbered: bool = False) -> tuple[list[int], dict[int, int]]:
    """The involution pairing the two darts that carry each edge label, and each
    label's first dart in order of first appearance, built in one pass over
    positive integer labels. With ``renumbered`` a label used other than twice
    is named by its rank in that order, the number ``_normalized`` gives it."""
    partner = [-1] * len(labels)
    first: dict[int, int] = {}
    for d, label in enumerate(labels):
        other = first.setdefault(label, d)
        if other != d:
            partner[d], partner[other] = other, d
    # With every dart paired each label is used at least twice, and then exactly
    # twice when there are half as many labels as darts.
    if -1 in partner or 2 * len(first) != len(labels):
        # Counter keeps the order of first appearance.
        bad = sorted(i if renumbered else label
                     for i, (label, k) in enumerate(Counter(labels).items(), 1) if k != 2)
        raise EdgeLabelUsedOtherThanTwice(f"edge labels not used exactly twice: {bad}")
    return partner, first


def arc_orbits(partner: Sequence[int], flips: Sequence[int]) -> tuple[int, list[int]]:
    """Number and per-dart index of the orbits alternating ``partner`` with the arc
    ``d ^ flips[d >> 2]`` inside each crossing: flip 2 (straight across) gives the strand
    components, flips 1 and 3 (A and B smoothings) the state circles. Marking both ends
    of every arc crossed lets one walk cover an orbit."""
    orbit = [-1] * len(partner)
    count = 0
    for start in range(len(partner)):
        if orbit[start] >= 0:
            continue
        d = start
        while orbit[d] < 0:
            orbit[d] = count
            e = d ^ flips[d >> 2]
            orbit[e] = count
            d = partner[e]
        count += 1
    return count, orbit


class PlanarDiagram:
    """A validated one-component 4-valent diagram with rotation system. ``slots``
    holds four edge labels per crossing, so dart ``d`` carries ``slots[d]``.
    Validation also keeps the edge involution ``partner`` and the dart pairs of
    the degree-2 faces. Immutable; equality, hash and repr use ``slots`` alone."""

    def __init__(self, slots: tuple[int, ...]) -> None:
        if not slots:
            raise EmptyDiagram("diagram has no crossings")
        if len(slots) % 4:
            raise MalformedToken(f"crossing needs 4 edge labels, got {slots[len(slots) & ~3:]!r}")
        for d, label in enumerate(slots):
            if not isinstance(label, int) or label < 1:
                crossing = slots[d & ~3:(d | 3) + 1]
                raise MalformedToken(f"edge labels must be positive integers: {crossing!r}")
        _validate(self, slots, _pair_darts(slots)[0])

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: PlanarDiagram is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.slots == other.slots if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.slots)

    def __repr__(self) -> str:
        return f"PlanarDiagram(slots={self.slots!r})"

    # -- basic counts ------------------------------------------------------

    @property
    def c(self) -> int:
        return len(self.slots) // 4

    # -- serialization -----------------------------------------------------

    def pd_string(self) -> str:
        """Canonical PD text; round-trips through :func:`parse_pd`."""
        return " ".join(["X[%d,%d,%d,%d]"] * self.c) % self.slots


def _validate(diagram: PlanarDiagram, slots: tuple[int, ...], partner: list[int],
              one_component: bool = False) -> None:
    """Check that paired slots form one strand component with c + 2 faces, and
    write them into ``diagram`` with the dart pairs of its degree-2 faces.
    ``one_component`` skips the strand walk for slots known to trace one
    component: a braid closure whose permutation is one cycle."""
    c = len(slots) // 4
    if not one_component:
        n_comp, _ = arc_orbits(partner, [2] * c)
        if n_comp != 1:
            raise MultiComponentLink(f"strand trace gives {n_comp} components, expected a knot")
    # Turn left: cross the edge, then rotate one slot counterclockwise.
    # ``unseen[d]`` is ``partner[d]`` until a walk passes d, then -1; a face's
    # start is left unmarked, since the loop never comes back to it.
    unseen = partner.copy()
    faces = 0
    degree_two = []
    for start in range(len(unseen)):
        p = unseen[start]
        if p < 0:
            continue
        faces += 1
        d = p - 3 if p & 3 == 3 else p + 1
        p = partner[d]
        if d != start and (p - 3 if p & 3 == 3 else p + 1) == start:
            degree_two.append((start, d))
        while d != start:
            p = unseen[d]
            unseen[d] = -1
            d = p - 3 if p & 3 == 3 else p + 1
    if faces != c + 2:
        raise NonPlanarDiagram(f"face traversal gives {faces} faces, expected c + 2 = {c + 2}")
    # Written past __setattr__, which refuses every assignment.
    diagram.__dict__.update(slots=slots, partner=tuple(partner), degree_two_faces=tuple(degree_two))


def _normalized(labels: Sequence[int], one_component: bool = False) -> PlanarDiagram:
    """Relabel a flat slot list (four labels per crossing) 1..2c in order of
    first appearance and validate, as :func:`_validate` with ``one_component``
    does. The labels are positive integers. One pass pairs them; the
    renumbering keeps that pairing, so the relabelled slots are not paired
    again."""
    partner, first = _pair_darts(labels, renumbered=True)
    relabel = dict(zip(first, range(1, len(first) + 1)))
    diagram = PlanarDiagram.__new__(PlanarDiagram)
    _validate(diagram, tuple(map(relabel.__getitem__, labels)), partner, one_component)
    return diagram


# --------------------------------------------------------------------------
# PD-code text
# --------------------------------------------------------------------------

# Whole tokens with their trailing separators. ``match`` takes the longest run of
# them and stops at the first bad token without backtracking, so its end is the
# error position; whitespace before a bracket is allowed only after an X, which
# keeps every split of the text unambiguous.
_PD_TOKENS = re.compile(
    r"(?:(?:[Xx]\s*)?[\[\(]\s*\d+\s*,\s*\d+\s*,\s*\d+\s*,\s*\d+\s*[\]\)][\s,]*)*"
)
_NOT_DIGITS = str.maketrans("Xx[](),", "       ")


def parse_pd(text: str) -> PlanarDiagram:
    """Parse PD-code text like ``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]``.

    Tuples may also be written ``(a,b,c,d)`` and separated by whitespace
    and/or commas. Edge labels are normalized to 1..2c on parse. Text listing
    more than ``MAX_CROSSINGS`` crossings raises ``TooManyCrossings`` before
    any label is converted.
    """
    stripped = text.strip()
    if not stripped:
        raise EmptyDiagram("no crossings in input")
    pos = _PD_TOKENS.match(stripped).end()
    if pos < len(stripped):
        raise MalformedToken(f"unrecognized PD token at: {stripped[pos:pos + 20]!r}")
    # Every token of the grammar opens with one bracket.
    crossings = stripped.count("[") + stripped.count("(")
    if crossings > MAX_CROSSINGS:
        raise TooManyCrossings(f"PD code lists {crossings} crossings, more than {MAX_CROSSINGS}")
    # The grammar leaves only edge labels, four per token, once its brackets,
    # commas and X marks turn into whitespace.
    try:
        labels = list(map(int, stripped.translate(_NOT_DIGITS).split()))
    except ValueError:  # a label with more digits than int() converts
        raise MalformedToken("an edge label has more digits than int() converts") from None
    if min(labels) < 1:
        raise MalformedToken("edge labels must be positive")
    return _normalized(labels)


# --------------------------------------------------------------------------
# Braid words
# --------------------------------------------------------------------------

class BraidWord(namedtuple("BraidWord", "strands syllables")):
    """A braid word as (generator index, nonzero exponent) syllables."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, strands: int, syllables: tuple[tuple[int, int], ...]) -> BraidWord:
        if strands < 2:
            raise FewerThanTwoStrands(f"need at least 2 strands, got {_cut(strands)}")
        # The caps of parse_braid, for words built without it.
        if strands > MAX_CROSSINGS + 1:
            raise TooManyCrossings(f"strand count exceeds {MAX_CROSSINGS + 1}")
        if sum(abs(r) for _, r in syllables) > MAX_CROSSINGS:
            raise TooManyCrossings(f"braid word asks for more than {MAX_CROSSINGS} crossings")
        for i, r in syllables:
            if not 1 <= i <= strands - 1:
                raise BadGeneratorIndex(f"generator s{_cut(i)} outside 1..{strands - 1}")
            if r == 0:
                raise ZeroExponent(f"syllable s{i}^0 is empty")
        for (i, _), (j, _) in zip(syllables, syllables[1:]):
            if i == j:
                raise MalformedToken("adjacent syllables share a generator; merge them first")
        return tuple.__new__(cls, (strands, syllables))

    def permutation(self) -> list[int]:
        """Where each starting position ends up (0-based positions)."""
        perm = list(range(self.strands))
        for i, r in self.syllables:
            if r % 2 == 1:
                a = i - 1
                perm[a], perm[a + 1] = perm[a + 1], perm[a]
        return perm

    def closure_component_count(self) -> int:
        """Cycles of the underlying permutation = components of the closure."""
        perm = self.permutation()
        seen = [False] * self.strands
        cycles = 0
        for s in range(self.strands):
            if seen[s]:
                continue
            cycles += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
        return cycles


_BRAID_SYLLABLE = re.compile(r"s(\d+)\^(-?\d+)$")


def parse_braid(text: str) -> BraidWord:
    """Parse braid text like ``3: s1^3 s2^-3`` (strand count, then syllables).

    Adjacent syllables on the same generator are merged; a merge that cancels
    to exponent zero drops the syllable and merging continues. Words asking for
    more than ``MAX_CROSSINGS`` crossings, or more strands than a knot closure
    with that many crossings has, raise ``TooManyCrossings`` before any
    diagram is built.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise MalformedToken("braid text must look like 'n: s1^2 s2^-1 ...'")
    try:
        strands = int(head.strip())
    except ValueError:
        raise MalformedToken(f"bad strand count {head.strip()[:20]!r}") from None
    # A knot closure on n strands has at least n - 1 crossings.
    if strands > MAX_CROSSINGS + 1:
        raise TooManyCrossings(f"strand count {head.strip()[:20]!r} exceeds {MAX_CROSSINGS + 1}")
    tokens = body.split()
    if not tokens:
        raise MalformedToken("braid word has no syllables")
    merged: list[list[int]] = []
    crossings = 0
    for tok in tokens:
        m = _BRAID_SYLLABLE.match(tok)
        if m is None:
            raise MalformedToken(f"unrecognized braid syllable {tok[:20]!r}")
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
        if r == 0:
            raise ZeroExponent(f"syllable {tok[:20]!r} has exponent zero")
        crossings += abs(r)
        if crossings > MAX_CROSSINGS:
            raise TooManyCrossings(f"braid word asks for more than {MAX_CROSSINGS} crossings")
        if merged and merged[-1][0] == i:
            merged[-1][1] += r
            if merged[-1][1] == 0:
                merged.pop()
        else:
            merged.append([i, r])
    if not merged:
        raise MalformedToken("braid word cancels to the empty word")
    return BraidWord(strands, tuple((i, r) for i, r in merged))


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
    top = list(range(1, n + 1))
    cur = list(top)
    fresh = n + 1
    labels: list[int] = []
    for i, r in word.syllables:
        a = i - 1
        for _ in range(abs(r)):
            out_l, out_r = fresh, fresh + 1
            fresh += 2
            if r > 0:
                labels += (cur[a + 1], cur[a], out_l, out_r)
            else:
                labels += (cur[a], out_l, out_r, cur[a + 1])
            cur[a], cur[a + 1] = out_l, out_r
    # Closure arcs identify each strand's bottom label with its top label.
    closing = {cur[p]: top[p] for p in range(n)}
    # The closure has one component per cycle of the permutation, checked above.
    return _normalized([closing.get(label, label) for label in labels], one_component=True)

