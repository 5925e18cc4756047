"""Shared test helpers: diagram generators and independent oracles.

The package counts faces and state circles by orbit walks over integer
darts. The oracles here share none of that code: they rebuild the edge
pairing from the slot convention on (crossing, slot) pairs and count circles
by breadth-first traversal or by a union-find over edge labels, and trace
faces with a dict of tuple darts. ``findall_parse_pd`` reads PD labels with
``re.findall`` where the package translates and splits the text. The slope
sweep oracles decide each threshold by a ``Fraction`` comparison in its
printed form, where the package compares integers.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from fractions import Fraction

from cuspbounds import parse_pd
from cuspbounds.diagram import (
    BraidWord,
    PlanarDiagram,
    braid_closure,
    parse_braid,
)
from cuspbounds.errors import ClosureIsLink, EmptyDiagram, MalformedToken


def crossing_labels(diagram: PlanarDiagram) -> list[tuple[int, ...]]:
    """The four edge labels of each crossing, cut from the flat slot tuple."""
    return [diagram.slots[i:i + 4] for i in range(0, len(diagram.slots), 4)]


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
    return PlanarDiagram(tuple(slots))


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


_PD_TOKENS = re.compile(
    r"(?:(?:[Xx]\s*)?[\[\(]\s*\d+\s*,\s*\d+\s*,\s*\d+\s*,\s*\d+\s*[\]\)][\s,]*)*"
)


def findall_parse_pd(text: str) -> PlanarDiagram:
    """PD text to a diagram with the labels read by ``re.findall``: the same
    grammar and error messages as :func:`parse_pd`, another way to read labels."""
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
    return PlanarDiagram(tuple(relabel[label] for label in labels))


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


def fraction_slope_entries(slopes, delta=None, volume=None, c=None, g=None) -> list:
    """Expected sweep entries from ``delta``, or from the counts (c, g), which
    also give the length floor 3.35 |q| c / (3c + 6g - 6). ``slopes`` holds
    objects with ``p`` and ``q``, and error dicts, which pass through."""
    one = 1 + (Fraction(delta) if delta is not None else Fraction(2 * g - 2, c))
    out = []
    for slope in slopes:
        if isinstance(slope, dict):
            out.append(slope)
            continue
        aq = abs(slope.q)
        length = None
        if delta is None:
            length = _sig(float(Fraction(67, 20) * aq * c / (3 * c + 6 * g - 6)))
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
            message = f"|q| = {aq} below 6(1 + delta) = {6 * one}"
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
            error = _err("SlopeTooSmall", f"|q| = {aq} below 6")
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
