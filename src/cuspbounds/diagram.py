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
maps. Each is counted by one walk over the darts.

Braid closures are emitted so that a positive generator takes the strand
entering from the higher-numbered position underneath. With that chirality
the all-B smoothing of a positive braid closure reproduces the braid-strand
(Seifert) circles, which is the calibration the state machinery relies on.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

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

# Crossings a braid word may ask for, counted as the sum of |r| over its
# syllables as written; about 1 KB of memory per crossing.
MAX_CROSSINGS = 100_000


def _pair_darts(slots: tuple[int, ...]) -> list[int]:
    """The involution pairing the two darts that carry each edge label, built in
    one pass that also checks every label is a positive integer."""
    if len(slots) % 4:
        raise MalformedToken(f"crossing needs 4 edge labels, got {slots[len(slots) & ~3:]!r}")
    partner = [-1] * len(slots)
    first: dict[int, int] = {}
    for d, label in enumerate(slots):
        if not isinstance(label, int) or label < 1:
            crossing = slots[d & ~3:(d | 3) + 1]
            raise MalformedToken(f"edge labels must be positive integers: {crossing!r}")
        other = first.setdefault(label, d)
        if other != d:
            partner[d], partner[other] = other, d
    # With every dart paired each label is used at least twice, and then exactly
    # twice when there are half as many labels as darts.
    if -1 in partner or 2 * len(first) != len(slots):
        bad = sorted(label for label, k in Counter(slots).items() if k != 2)
        raise EdgeLabelUsedOtherThanTwice(f"edge labels not used exactly twice: {bad}")
    return partner


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


def _face_orbits(partner: Sequence[int]) -> list[list[int]]:
    """Turn-left orbits: cross the edge, then rotate one slot counterclockwise."""
    seen = bytearray(len(partner))
    orbits = []
    for start in range(len(partner)):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = 1
            orbit.append(d)
            p = partner[d]
            d = p - 3 if p & 3 == 3 else p + 1
        orbits.append(orbit)
    return orbits


@dataclass(frozen=True)
class PlanarDiagram:
    """A validated one-component 4-valent diagram with rotation system. ``slots``
    holds four edge labels per crossing, so dart ``d`` carries ``slots[d]``.
    Validation also keeps the edge involution ``partner`` and the dart pairs of
    the degree-2 faces."""

    slots: tuple[int, ...]
    partner: tuple[int, ...] = field(init=False, repr=False, compare=False)
    degree_two_faces: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.slots:
            raise EmptyDiagram("diagram has no crossings")
        partner = _pair_darts(self.slots)
        n_comp, _ = arc_orbits(partner, [2] * self.c)
        if n_comp != 1:
            raise MultiComponentLink(f"strand trace gives {n_comp} components, expected a knot")
        orbits = _face_orbits(partner)
        if len(orbits) != self.c + 2:
            raise NonPlanarDiagram(
                f"face traversal gives {len(orbits)} faces, expected c + 2 = {self.c + 2}"
            )
        object.__setattr__(self, "partner", tuple(partner))
        object.__setattr__(self, "degree_two_faces", tuple(tuple(o) for o in orbits if len(o) == 2))

    # -- basic counts ------------------------------------------------------

    @property
    def c(self) -> int:
        return len(self.slots) // 4

    # -- serialization -----------------------------------------------------

    def pd_string(self) -> str:
        """Canonical PD text; round-trips through :func:`parse_pd`."""
        return " ".join(["X[%d,%d,%d,%d]"] * self.c) % self.slots


def _normalized(labels: Sequence[int]) -> PlanarDiagram:
    """Relabel a flat slot list (four labels per crossing) 1..2c in order of
    first appearance and validate."""
    relabel = {label: i for i, label in enumerate(dict.fromkeys(labels), 1)}
    return PlanarDiagram(tuple(map(relabel.__getitem__, labels)))


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
    and/or commas. Edge labels are normalized to 1..2c on parse.
    """
    stripped = text.strip()
    if not stripped:
        raise EmptyDiagram("no crossings in input")
    pos = _PD_TOKENS.match(stripped).end()
    if pos < len(stripped):
        raise MalformedToken(f"unrecognized PD token at: {stripped[pos:pos + 20]!r}")
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

@dataclass(frozen=True)
class BraidWord:
    """A braid word as (generator index, nonzero exponent) syllables."""

    strands: int
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise FewerThanTwoStrands(f"need at least 2 strands, got {self.strands}")
        for i, r in self.syllables:
            if not 1 <= i <= self.strands - 1:
                raise BadGeneratorIndex(f"generator s{str(i)[:20]} outside 1..{self.strands - 1}")
            if r == 0:
                raise ZeroExponent(f"syllable s{i}^0 is empty")
        for (i, _), (j, _) in zip(self.syllables, self.syllables[1:]):
            if i == j:
                raise MalformedToken("adjacent syllables share a generator; merge them first")

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
    return _normalized([closing.get(label, label) for label in labels])

