"""Shared test helpers: diagram generators and independent oracles.

The package counts faces and state circles by orbit walks over integer
darts. The oracles here share none of that code: they rebuild the edge
pairing from the slot convention on (crossing, slot) pairs and count circles
by breadth-first traversal or by a union-find over edge labels, and trace
faces with a dict of tuple darts; ``face_pair_prime`` decides primeness from
those faces where the package reads it off a braid word.
``kauffman_bracket`` sums the Kauffman bracket over every state from the
path-following circle counts: a knot invariant against which the extreme
states' counts and adequacy are checked. ``findall_parse_pd`` reads and
relabels PD labels with ``re.findall`` where the package translates and
splits the text and numbers edges off the dart pairing, and
``closure_pd_text`` writes a braid closure as PD text by labelling edges
where the package pairs darts. The slope sweep oracles decide each
threshold by a ``Fraction`` comparison in its printed form, where the
package compares integers.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter, deque
from fractions import Fraction

from cuspbounds import parse_pd
from cuspbounds.diagram import (
    BraidWord,
    PlanarDiagram,
    braid_closure,
    parse_braid,
)
from cuspbounds.errors import (
    ClosureIsLink,
    EdgeLabelUsedOtherThanTwice,
    EmptyDiagram,
    MalformedToken,
)


def pd_text(slots) -> str:
    """``X[a,b,c,d]`` PD text of a flat tuple of edge labels, four per crossing,
    written as given; :func:`parse_pd` of it builds the diagram."""
    return " ".join(["X[%d,%d,%d,%d]"] * (len(slots) // 4)) % tuple(slots)


def crossing_labels(diagram: PlanarDiagram) -> list[tuple[int, ...]]:
    """The four edge labels of each crossing, cut from the flat slot tuple."""
    slots = diagram.slots  # built anew on every read
    return [slots[i:i + 4] for i in range(0, len(slots), 4)]


def path_following_circle_count(diagram: PlanarDiagram, state: str) -> int:
    """Count state circles by walking arcs and edges (no union-find); ``state``
    has one letter A or B per crossing."""
    arc_next: dict[tuple[int, int], tuple[int, int]] = {}
    for ci, choice in enumerate(state):
        pairs = ((0, 1), (2, 3)) if choice == "A" else ((0, 3), (1, 2))
        for s, t in pairs:
            arc_next[(ci, s)] = (ci, t)
            arc_next[(ci, t)] = (ci, s)
    edge_next: dict[tuple[int, int], tuple[int, int]] = {}
    open_end: dict[int, tuple[int, int]] = {}
    for ci, labels in enumerate(crossing_labels(diagram)):
        for si, label in enumerate(labels):
            if label in open_end:
                other = open_end.pop(label)
                edge_next[other] = (ci, si)
                edge_next[(ci, si)] = other
            else:
                open_end[label] = (ci, si)
    seen: set[tuple[int, int]] = set()
    circles = 0
    for start in arc_next:
        if start in seen:
            continue
        circles += 1
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.append(arc_next[node])
            queue.append(edge_next[node])
    return circles


def kauffman_bracket(diagram: PlanarDiagram) -> dict[int, int]:
    """The Kauffman bracket of ``diagram`` as ``{exponent of A: coefficient}``,
    non-zero coefficients only: the sum over all 2^c states of
    A^(#A - #B) d^(k - 1), with d = -A^2 - A^-2 and k the state's circle count
    by :func:`path_following_circle_count`."""
    states = Counter()  # (#A - #B, k - 1) -> the number of states
    for letters in itertools.product("AB", repeat=diagram.c):
        state = "".join(letters)
        states[2 * state.count("A") - diagram.c, path_following_circle_count(diagram, state) - 1] += 1
    bracket = Counter()
    for (shift, m), count in states.items():
        for j in range(m + 1):  # d^m = (-1)^m sum_j C(m, j) A^(4j - 2m)
            bracket[shift + 4 * j - 2 * m] += (-1) ** m * math.comb(m, j) * count
    return {exponent: value for exponent, value in bracket.items() if value}


def union_find_circle_count(diagram: PlanarDiagram, state: str) -> tuple[int, tuple[bool, ...]]:
    """Count state circles by merging edge labels along smoothing arcs.

    Also returns one flag per crossing: whether its two smoothing arcs lie on
    one circle, i.e. whether the crossing is a loop of the state graph.
    """
    parent = {label: label for label in diagram.slots}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    arcs = []
    for s, choice in zip(crossing_labels(diagram), state):
        pair = ((s[0], s[1]), (s[2], s[3])) if choice == "A" else ((s[0], s[3]), (s[1], s[2]))
        arcs.append(pair)
        for a, b in pair:
            parent[find(a)] = find(b)
    circles = len({find(label) for label in parent})
    return circles, tuple(find(arc1[0]) == find(arc2[0]) for arc1, arc2 in arcs)


def mirror(diagram: PlanarDiagram) -> PlanarDiagram:
    """The reflected diagram: each crossing's slots 1 and 3 swap, which reverses
    its cyclic order and keeps the incoming under-strand at slot 0."""
    slots = list(diagram.slots)
    slots[1::4], slots[3::4] = slots[3::4], slots[1::4]
    return parse_pd(pd_text(slots))


def traced_faces(diagram: PlanarDiagram) -> list[tuple[tuple[int, int], ...]]:
    """Face boundaries as (crossing, slot) darts: cross the edge, then turn
    to the next slot counterclockwise. Faces are listed by first dart."""
    edge_next: dict[tuple[int, int], tuple[int, int]] = {}
    open_end: dict[int, tuple[int, int]] = {}
    for ci, labels in enumerate(crossing_labels(diagram)):
        for si, label in enumerate(labels):
            if label in open_end:
                other = open_end.pop(label)
                edge_next[other] = (ci, si)
                edge_next[(ci, si)] = other
            else:
                open_end[label] = (ci, si)
    seen: set[tuple[int, int]] = set()
    out = []
    for ci in range(diagram.c):
        for si in range(4):
            dart = (ci, si)
            boundary = []
            while dart not in seen:
                seen.add(dart)
                boundary.append(dart)
                pc, ps = edge_next[dart]
                dart = (pc, (ps + 1) % 4)
            if boundary:
                out.append(tuple(boundary))
    return out


def traced_bigons(diagram: PlanarDiagram) -> tuple[int, tuple[int, int] | None]:
    """The number of alternating bigons and the crossing pair of the first
    non-alternating one, read off :func:`traced_faces`: a bigon is a face of two
    darts at two crossings, alternating when their slots share parity."""
    bigons, clasp = 0, None
    for face in traced_faces(diagram):
        if len(face) == 2 and face[0][0] != face[1][0]:
            (c1, s1), (c2, s2) = face
            if (s1 - s2) % 2 == 0:
                bigons += 1
            elif clasp is None:
                clasp = (c1, c2)
    return bigons, clasp


def face_pair_prime(diagram: PlanarDiagram) -> bool:
    """Whether no two distinct faces of :func:`traced_faces` share two edges, the
    edges named by their labels: for a reduced diagram, whether it is prime. A
    dart runs along the edge labelled at its slot, one side per dart."""
    labels = crossing_labels(diagram)
    sides: dict[int, list[int]] = {}
    for face_id, face in enumerate(traced_faces(diagram)):
        for ci, si in face:
            sides.setdefault(labels[ci][si], []).append(face_id)
    shared = Counter(frozenset(pair) for pair in sides.values() if pair[0] != pair[1])
    return all(k < 2 for k in shared.values())


_PD_TOKENS = re.compile(
    r"(?:(?:[Xx]\s*)?[\[\(]\s*\d+\s*,\s*\d+\s*,\s*\d+\s*,\s*\d+\s*[\]\)][\s,]*)*"
)


def findall_parse_pd(text: str) -> tuple[int, ...]:
    """The ``slots`` that :func:`parse_pd` gives PD text, with the labels read by
    ``re.findall`` and numbered 1..2c in order of first appearance: the same
    grammar, label checks and error messages, another way to read and number
    labels. Strands and faces are not checked."""
    stripped = text.strip()
    if not stripped:
        raise EmptyDiagram("no crossings in input")
    pos = _PD_TOKENS.match(stripped).end()
    if pos < len(stripped):
        raise MalformedToken(f"unrecognized PD token at: {stripped[pos:pos + 20]!r}")
    labels = [int(digits) for digits in re.findall(r"\d+", stripped)]
    if min(labels) < 1:
        raise MalformedToken("edge labels must be positive")
    relabel: dict[int, int] = {}
    for label in labels:
        relabel.setdefault(label, len(relabel) + 1)
    slots = tuple(relabel[label] for label in labels)
    bad = sorted(label for label, k in Counter(slots).items() if k != 2)
    if bad:
        raise EdgeLabelUsedOtherThanTwice(f"edge labels not used exactly twice: {bad}")
    return slots


def closure_pd_text(word: BraidWord) -> str:
    """PD text of the closure of ``word``, link or knot, labelled without the
    package: crossings stacked in word order, positive ones read (NE, NW, SW,
    SE) and negative ones (NW, SW, SE, NE), and each position's bottom label
    replaced by its top label. A position no syllable touches leaves no label."""
    n = word.strands
    cur, fresh, raw = list(range(1, n + 1)), n + 1, []
    for g, e in word.syllables:
        for _ in range(abs(e)):
            a = g - 1
            nw, ne, sw, se = cur[a], cur[a + 1], fresh, fresh + 1
            fresh += 2
            raw.append((ne, nw, sw, se) if e > 0 else (nw, sw, se, ne))
            cur[a], cur[a + 1] = sw, se
    close = {cur[p]: p + 1 for p in range(n)}
    return " ".join("X[%d,%d,%d,%d]" % tuple(close.get(x, x) for x in t) for t in raw)


def is_alternating_diagram(diagram: PlanarDiagram) -> bool:
    """Walk the knot strand and check passages alternate under/over.

    A passage entering a crossing at slot 0 or 2 runs under; slots 1 and 3
    run over. Independent of the genus formula.
    """
    edge_next: dict[tuple[int, int], tuple[int, int]] = {}
    open_end: dict[int, tuple[int, int]] = {}
    for ci, labels in enumerate(crossing_labels(diagram)):
        for si, label in enumerate(labels):
            if label in open_end:
                other = open_end.pop(label)
                edge_next[other] = (ci, si)
                edge_next[(ci, si)] = other
            else:
                open_end[label] = (ci, si)
    dart = (0, 0)
    parities = []
    for _ in range(2 * diagram.c):
        parities.append(dart[1] % 2)
        across = (dart[0], (dart[1] + 2) % 4)
        dart = edge_next[across]
    return all(a != b for a, b in zip(parities, parities[1:] + parities[:1]))


def weaving_braid(k: int) -> BraidWord:
    """The 3-strand weave (s1 s2^-1)^k; its closure is alternating for any k
    and a knot whenever k is not a multiple of 3."""
    return parse_braid("3: " + " ".join("s1^1 s2^-1" for _ in range(k)))


def pretzel_pd(p1: int, p2: int, p3: int) -> PlanarDiagram:
    """Standard three-strip pretzel diagram with all-positive twist strips.

    All parameters odd gives a knot; the all-same-sign diagram is reduced
    and alternating. Strip k is a vertical ladder of p_k crossings whose
    sides are shared with the neighboring strips at top and bottom.
    """
    counts = (p1, p2, p3)
    assert all(p >= 1 and p % 2 == 1 for p in counts)
    fresh = iter(range(1, 10 * sum(counts)))
    left = [[next(fresh) for _ in range(p + 1)] for p in counts]
    right = []
    for k, p in enumerate(counts):
        nxt = left[(k + 1) % 3]
        column = [nxt[0]] + [next(fresh) for _ in range(p - 1)] + [nxt[counts[(k + 1) % 3]]]
        right.append(column)
    raw = []
    for k, p in enumerate(counts):
        for j in range(1, p + 1):
            raw.append((right[k][j - 1], left[k][j - 1], left[k][j], right[k][j]))
    return parse_pd(" ".join("X[%d,%d,%d,%d]" % tup for tup in raw))


def random_braid_word(rng: random.Random, max_crossings: int = 12) -> BraidWord:
    strands = rng.randint(2, 4)
    syllables: list[tuple[int, int]] = []
    budget = rng.randint(3, max_crossings)
    prev = 0
    while budget > 0:
        choices = [i for i in range(1, strands) if i != prev]
        if not choices:
            break
        gen = rng.choice(choices)
        exp = rng.randint(1, min(3, budget)) * rng.choice((1, -1))
        syllables.append((gen, exp))
        budget -= abs(exp)
        prev = gen
        if len(syllables) >= 6:
            break
    return BraidWord(strands, tuple(syllables))


def random_knot_diagram(rng: random.Random, max_crossings: int = 12) -> PlanarDiagram:
    """Rejection-sample braid words until the closure is a knot."""
    while True:
        word = random_braid_word(rng, max_crossings)
        try:
            return braid_closure(word)
        except ClosureIsLink:
            continue


def random_adequate_same_sign_word(rng: random.Random, max_crossings: int = 12) -> BraidWord:
    """Words with same-signed exponents of magnitude >= 2: adequate closures."""
    strands = rng.randint(2, 4)
    sign = rng.choice((1, -1))
    syllables: list[tuple[int, int]] = []
    budget = rng.randint(2, max_crossings)
    prev = 0
    while budget >= 2:
        choices = [i for i in range(1, strands) if i != prev]
        if not choices:
            break
        gen = rng.choice(choices)
        exp = rng.randint(2, min(4, budget))
        syllables.append((gen, sign * exp))
        budget -= exp
        prev = gen
    if not syllables:
        syllables.append((1, sign * 2))
    return BraidWord(strands, tuple(syllables))


def random_same_sign_knot(rng: random.Random, min_exponent: int = 2) -> tuple[BraidWord, PlanarDiagram]:
    """A same-sign word on 3-8 strands with |r| in min_exponent..5 and n - 1 to
    3(n - 1) syllables, rejection-sampled until its closure is a knot. About
    half of the closures for ``min_exponent`` 2 are composite diagrams."""
    while True:
        n = rng.randint(3, 8)
        sign = rng.choice((1, -1))
        syllables, prev = [], 0
        for _ in range(rng.randint(n - 1, 3 * (n - 1))):
            prev = rng.choice([i for i in range(1, n) if i != prev])
            syllables.append((prev, sign * rng.randint(min_exponent, 5)))
        word = BraidWord(n, syllables)
        try:
            return word, braid_closure(word)
        except ClosureIsLink:
            continue


def random_adequate_knot_diagram(rng: random.Random, max_crossings: int = 12) -> PlanarDiagram:
    """An adequate knot diagram whose checkerboard surfaces are not bands.

    Mixes guaranteed-adequate same-sign braid closures with accidental
    finds among fully random words; both checkerboard Euler characteristics
    are required to be negative so the diagram carries hyperbolic bounds.
    """
    from cuspbounds import invariants

    while True:
        if rng.random() < 0.7:
            word = random_adequate_same_sign_word(rng, max_crossings)
        else:
            word = random_braid_word(rng, max_crossings)
        try:
            diagram = braid_closure(word)
        except ClosureIsLink:
            continue
        inv = invariants(diagram)
        if inv["adequate"] and inv["chiA"] < 0 and inv["chiB"] < 0:
            return diagram


# ------------------------------------------------------------ slope sweeps

OCTAHEDRON_VOLUME = 3.663862376708876  # v8 = 4 x Catalan's constant


def _sig(x) -> float:
    return float(f"{x:.12g}")


def _err(code: str, message: str) -> dict:
    return {"code": code, "message": message}


HUGE_Q = "|q| too large: its length floor 3.35 |q| / M overflows a float"


def fraction_slope_entries(slopes, delta=None, volume=None, c=None, g=None, meridian=None) -> list:
    """Expected sweep entries from one of ``delta``, the counts (c, g) or a
    meridian bound M. The counts give M = (3c + 6g - 6)/c, and M gives the
    length floor 3.35 |q| / M, which ``delta`` does not; a floor too large
    for a float makes the entry an ``InvalidSlope`` error. ``slopes`` holds
    objects with ``p`` and ``q``, and error dicts, which pass through."""
    if c is not None:
        meridian = Fraction(3 * c + 6 * g - 6, c)
    one = 1 + Fraction(delta) if delta is not None else Fraction(meridian) / 3
    out = []
    for slope in slopes:
        if isinstance(slope, dict):
            out.append(slope)
            continue
        aq = abs(slope.q)
        length = None
        if delta is None:
            try:
                length = _sig(float(Fraction(67, 20) * aq / meridian))
            except OverflowError:
                out.append({"p": slope.p, "q": slope.q, "error": _err("InvalidSlope", HUGE_Q)})
                continue
        entry = {
            "p": slope.p,
            "q": slope.q,
            "lengthLower": length,
            "nonExceptional": aq > Fraction(360, 67) * one,
            "twoPiExceeded": aq > 6 * one,
            "volumeWindow": None,
            "rule": "filter",
        }
        if volume is None:
            pass
        elif not math.isfinite(volume):
            entry["windowError"] = _err("NonFiniteVolume", f"volume must be finite, got {volume}")
        elif volume <= 0:
            entry["windowError"] = _err("NonPositiveVolume", f"volume must be positive, got {volume}")
        elif aq < 6 * one:
            message = f"|q| = {str(aq)[:20]} below 2M = {str(6 * one)[:20]}"
            entry["windowError"] = _err("SlopeTooSmall", message)
        else:
            factor = 1 - 36 * one**2 / Fraction(aq) ** 2
            lower = float(volume) * float(factor) ** 1.5
            entry["volumeWindow"] = {"lower": _sig(lower), "upper": _sig(float(volume))}
            entry["rule"] = "surgery_window"
            if aq == 6 * one:
                entry["boundaryHit"] = True
        out.append(entry)
    return out


def fraction_montesinos_entries(slopes, t: int) -> list:
    """Expected Montesinos sweep entries: the window
    [(v8/4)(t - 9)(1 - 36/q^2)^(3/2) clamped at 0, 2 v8 t) for |q| >= 6."""
    out = []
    for slope in slopes:
        if isinstance(slope, dict):
            out.append(slope)
            continue
        aq = abs(slope.q)
        if t < 2:
            error = _err("TooFewTwistRegions", f"need t >= 2 twist regions, got {t}")
        elif aq < 6:
            error = _err("SlopeTooSmall", f"|q| = {aq} below 2M = 6")
        else:
            factor = float(1 - Fraction(36, aq * aq)) ** 1.5
            lower = max(0.0, (OCTAHEDRON_VOLUME / 4.0) * (t - 9) * factor)
            entry = {
                "p": slope.p,
                "q": slope.q,
                "lengthLower": None,
                "nonExceptional": True,
                "twoPiExceeded": aq > 6,
                "volumeWindow": {"lower": _sig(lower), "upper": _sig(2.0 * OCTAHEDRON_VOLUME * t)},
                "rule": "montesinos_window",
            }
            if aq == 6:
                entry["boundaryHit"] = True
            out.append(entry)
            continue
        out.append({"p": slope.p, "q": slope.q, "error": error})
    return out
