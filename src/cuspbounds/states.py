"""Kauffman states, state circles, adequacy, twist regions.

Every crossing can be smoothed two ways. With slots listed counterclockwise
from the incoming under-strand, the A-smoothing joins slots (0,1) and (2,3)
and the B-smoothing joins slots (0,3) and (1,2); on integer darts the arc
is ``d ^ 1`` for A and ``d ^ 3`` for B. A state is a string of c letters
A/B, one per crossing. A state circle alternates the smoothing arc with the
edge ``partner``, so :func:`resolve` counts the circles by one walk per
circle, each started from an even dart, and returns the circle of every
dart. The state joins a circle to itself at crossing ci exactly when darts
4ci and 4ci + 2 lie on one circle; a diagram with no such crossing in both
the all-A and the all-B state is adequate.

Derived quantities: vA and vB are the all-A/all-B circle counts, the
checkerboard Euler characteristics are vA - c and vB - c, the diagram genus
is (2 - vA - vB + c)/2 (zero for alternating diagrams, and only for them
once nugatory kinks are untwisted), and the ratio delta = (2g - 2)/c is
reported exactly, as numerator and denominator in lowest terms. Each result
is the JSON-shaped dict that a report prints.

Twist regions are maximal chains of alternating bigon faces (a lone crossing
counts as a region of its own), so the twist number is t = c - (number of
alternating bigons). Diagram validation counts those bigons as its face walk
closes each degree-2 face, and keeps no tuple per face (see ``diagram``), so
this module only reads the count. When the bigons close into a single cycle
through every crossing the diagram belongs to a (2, p) torus knot; that
degenerate case is flagged and t is reported as 1.
"""

from __future__ import annotations

from math import gcd
from operator import eq

from .diagram import PlanarDiagram
from .errors import NonAlternatingBigon, NonIntegerGenus, StateLengthMismatch


def _loop_free(circle: list[int]) -> bool:
    """No crossing joins a circle to itself: darts 4ci and 4ci + 2 differ."""
    return not any(map(eq, circle[0::4], circle[2::4]))


def resolve(diagram: PlanarDiagram, state: str) -> tuple[int, list[int]]:
    """Smooth crossing ci by letter ``state[ci]`` (A or B): the number of state
    circles and the circle index of every dart, numbered in order of each
    circle's first even dart.

    A circle alternates a smoothing arc with an edge, so one walk that marks
    both ends of every arc it crosses covers a circle. Every arc joins an even
    dart to an odd one, so each circle has an even dart and the walks start
    from even darts only. A uniform state (all A or all B, the two that
    :func:`invariants` asks for) smooths every crossing by one arc, ``d ^ 1``
    or ``d ^ 3``, so its walk xors a constant; a mixed one looks the arc up
    per dart."""
    if not isinstance(state, str) or len(state) != diagram.c or state.strip("AB"):
        raise StateLengthMismatch(f"a state is {diagram.c} letters A or B, got {state!r:.40}")
    partner = diagram.partner
    circle = [-1] * len(partner)
    count = 0
    arc = 1 if "B" not in state else 3 if "A" not in state else 0
    if arc:
        for start in range(0, len(partner), 2):
            if circle[start] >= 0:
                continue
            d = start
            while circle[d] < 0:
                e = d ^ arc
                circle[d] = circle[e] = count
                d = partner[e]
            count += 1
        return count, circle
    # The smoothing arc of dart d is d ^ arcs[d]: d ^ 1 at an A crossing, d ^ 3 at a B one.
    arcs = state.encode().replace(b"A", b"\1\1\1\1").replace(b"B", b"\3\3\3\3")
    for start in range(0, len(partner), 2):
        if circle[start] >= 0:
            continue
        d = start
        while circle[d] < 0:
            e = d ^ arcs[d]
            circle[d] = circle[e] = count
            d = partner[e]
        count += 1
    return count, circle


def invariants(diagram: PlanarDiagram) -> dict:
    """The report's ``invariants`` block: circle counts, Euler characteristics,
    diagram genus, delta as ``{num, den}`` and adequacy. For adequate diagrams
    these are invariants of the knot: the crossing number is realized and the
    diagram genus equals the knot's."""
    c = diagram.c
    v_a, circle_a = resolve(diagram, "A" * c)
    v_b, circle_b = resolve(diagram, "B" * c)
    two_g = 2 - v_a - v_b + c
    if two_g % 2 != 0:
        raise NonIntegerGenus(f"2 - vA - vB + c = {two_g} is odd; diagram data corrupted")
    g_t = two_g // 2
    k = gcd(two_g - 2, c)  # delta = (2g - 2)/c in lowest terms, with c > 0
    a_adequate, b_adequate = _loop_free(circle_a), _loop_free(circle_b)
    return {
        "c": c, "vA": v_a, "vB": v_b, "chiA": v_a - c, "chiB": v_b - c, "gT": g_t,
        "delta": {"num": (two_g - 2) // k, "den": c // k},
        "aAdequate": a_adequate, "bAdequate": b_adequate, "adequate": a_adequate and b_adequate,
    }


# The keys of :func:`twist_analysis`, which a report sets to None when the
# twist count is refused.
TWIST_KEYS = ("t", "vBi", "vNb", "torusDegenerate")


def twist_analysis(diagram: PlanarDiagram, inv: dict) -> dict:
    """Twist regions (t = c - bigons) from the alternating bigons that diagram
    validation counted, as the ``TWIST_KEYS`` entries of the report's invariants.

    ``inv`` is the diagram's :func:`invariants`, which supply vA + vB. A
    degree-2 face between two distinct crossings whose strands do not
    alternate is a reducible clasp; that aborts the analysis because the
    twist count of a non-reduced diagram is meaningless.
    """
    if diagram.clasp is not None:
        raise NonAlternatingBigon("non-alternating bigon between crossings %d and %d" % diagram.clasp)
    v_bi = diagram.bigons
    torus_degenerate = v_bi == diagram.c
    t = 1 if torus_degenerate else diagram.c - v_bi
    return dict(zip(TWIST_KEYS, (t, v_bi, inv["vA"] + inv["vB"] - v_bi, torus_degenerate)))
