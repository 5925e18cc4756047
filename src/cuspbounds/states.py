"""Kauffman states, state circles, adequacy, twist regions.

Every crossing can be smoothed two ways. With slots listed counterclockwise
from the incoming under-strand, the A-smoothing joins slots (0,1) and (2,3)
and the B-smoothing joins slots (0,3) and (1,2); on integer darts the arc
is ``d ^ 1`` for A and ``d ^ 3`` for B. A state is a string of c letters
A/B, one per crossing. A state circle alternates the smoothing arc with the
edge ``partner``, so :func:`resolve` counts the circles by one orbit walk
over the darts (``diagram.arc_orbits``, which also counts the strand
components) and returns the circle of every dart. The state joins a circle
to itself at crossing ci exactly when darts 4ci and 4ci + 2 lie on one
circle; a diagram with no such crossing in both the all-A and the all-B
state is adequate.

Derived quantities: vA and vB are the all-A/all-B circle counts, the
checkerboard Euler characteristics are vA - c and vB - c, the diagram genus
is (2 - vA - vB + c)/2 (zero for alternating diagrams, and only for them
once nugatory kinks are untwisted), and the ratio delta = (2g - 2)/c is
reported exactly, as numerator and denominator in lowest terms. Each result
is the JSON-shaped dict that a report prints.

Twist regions are maximal chains of alternating bigon faces (a lone crossing
counts as a region of its own), so the twist number is t = c - (number of
alternating bigons), read off the degree-2 faces that diagram validation
recorded. When the bigons close into a single cycle through every
crossing the diagram belongs to a (2, p) torus knot; that degenerate case is
flagged and t is reported as 1.
"""

from __future__ import annotations

from fractions import Fraction
from operator import eq

from .diagram import PlanarDiagram, arc_orbits
from .errors import NonAlternatingBigon, NonIntegerGenus, StateLengthMismatch

# The smoothing arc of dart d is d ^ 1 in an A crossing and d ^ 3 in a B crossing.
_FLIP = bytes.maketrans(b"AB", b"\x01\x03")


def _loop_free(circle: list[int]) -> bool:
    """No crossing joins a circle to itself: darts 4ci and 4ci + 2 differ."""
    return not any(map(eq, circle[0::4], circle[2::4]))


def resolve(diagram: PlanarDiagram, state: str) -> tuple[int, list[int]]:
    """Smooth crossing ci by letter ``state[ci]`` (A or B): the number of state
    circles and the circle index of every dart, as ``arc_orbits`` numbers them."""
    if not isinstance(state, str) or len(state) != diagram.c or state.strip("AB"):
        raise StateLengthMismatch(f"a state is {diagram.c} letters A or B, got {state!r:.40}")
    return arc_orbits(diagram.partner, state.encode().translate(_FLIP))


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
    delta = Fraction(2 * g_t - 2, c)
    a_adequate, b_adequate = _loop_free(circle_a), _loop_free(circle_b)
    return {
        "c": c, "vA": v_a, "vB": v_b, "chiA": v_a - c, "chiB": v_b - c, "gT": g_t,
        "delta": {"num": delta.numerator, "den": delta.denominator},
        "aAdequate": a_adequate, "bAdequate": b_adequate, "adequate": a_adequate and b_adequate,
    }


# The keys of :func:`twist_analysis`, which a report sets to None when the
# twist count is refused.
TWIST_KEYS = ("t", "vBi", "vNb", "torusDegenerate")


def twist_analysis(diagram: PlanarDiagram, inv: dict) -> dict:
    """Count alternating bigons and twist regions (t = c - bigons), as the
    ``TWIST_KEYS`` entries of the report's invariants.

    ``inv`` is the diagram's :func:`invariants`, which supply vA + vB. A
    degree-2 face between two distinct crossings whose strands do not
    alternate is a reducible clasp; that aborts the analysis because the
    twist count of a non-reduced diagram is meaningless.
    """
    v_bi = 0
    for d1, d2 in diagram.degree_two_faces:
        c1, c2 = d1 >> 2, d2 >> 2
        if c1 == c2:
            continue
        if (d1 ^ d2) & 1:  # one under slot (0, 2) and one over slot (1, 3): no alternation
            raise NonAlternatingBigon(f"non-alternating bigon between crossings {c1} and {c2}")
        v_bi += 1
    torus_degenerate = v_bi == diagram.c
    t = 1 if torus_degenerate else diagram.c - v_bi
    return dict(zip(TWIST_KEYS, (t, v_bi, inv["vA"] + inv["vB"] - v_bi, torus_degenerate)))
