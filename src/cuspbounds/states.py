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
kept as an exact rational because it feeds threshold comparisons
downstream.

Twist regions are maximal chains of alternating bigon faces (a lone crossing
counts as a region of its own), so the twist number is t = c - (number of
alternating bigons), read off the degree-2 faces that diagram validation
recorded. When the bigons close into a single cycle through every
crossing the diagram belongs to a (2, p) torus knot; that degenerate case is
flagged and t is reported as 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq

from .diagram import Face, PlanarDiagram, arc_orbits, is_alternating_bigon
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


@dataclass(frozen=True)
class DiagramInvariants:
    """Counts and ratios read off the two extreme states of one diagram.

    For adequate diagrams these are invariants of the underlying knot: the
    crossing number is realized and the diagram genus equals the knot's.
    """

    c: int
    v_a: int
    v_b: int
    chi_a: int
    chi_b: int
    g_t_diagram: int
    a_adequate: bool
    b_adequate: bool
    delta: Fraction

    @property
    def adequate(self) -> bool:
        return self.a_adequate and self.b_adequate

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "vA": self.v_a,
            "vB": self.v_b,
            "chiA": self.chi_a,
            "chiB": self.chi_b,
            "gT": self.g_t_diagram,
            "delta": {"num": self.delta.numerator, "den": self.delta.denominator},
            "aAdequate": self.a_adequate,
            "bAdequate": self.b_adequate,
            "adequate": self.adequate,
        }


def invariants(diagram: PlanarDiagram) -> DiagramInvariants:
    """Circle counts, Euler characteristics, diagram genus, adequacy."""
    c = diagram.c
    v_a, circle_a = resolve(diagram, "A" * c)
    v_b, circle_b = resolve(diagram, "B" * c)
    two_g = 2 - v_a - v_b + c
    if two_g % 2 != 0:
        raise NonIntegerGenus(f"2 - vA - vB + c = {two_g} is odd; diagram data corrupted")
    g_t = two_g // 2
    return DiagramInvariants(
        c=c,
        v_a=v_a,
        v_b=v_b,
        chi_a=v_a - c,
        chi_b=v_b - c,
        g_t_diagram=g_t,
        a_adequate=_loop_free(circle_a),
        b_adequate=_loop_free(circle_b),
        delta=Fraction(2 * g_t - 2, c),
    )


@dataclass(frozen=True)
class TwistSummary:
    t: int
    v_bi: int
    v_nb: int
    torus_degenerate: bool

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "vBi": self.v_bi,
            "vNb": self.v_nb,
            "torusDegenerate": self.torus_degenerate,
        }


def twist_analysis(diagram: PlanarDiagram, inv: DiagramInvariants) -> TwistSummary:
    """Count alternating bigons and twist regions (t = c - bigons).

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
        if not is_alternating_bigon(d1, d2):
            raise NonAlternatingBigon(
                f"non-alternating bigon between crossings {c1} and {c2}",
                face=Face((divmod(d1, 4), divmod(d2, 4)), False),
            )
        v_bi += 1
    v_nb = (inv.v_a + inv.v_b) - v_bi
    torus_degenerate = v_bi == diagram.c
    t = 1 if torus_degenerate else diagram.c - v_bi
    return TwistSummary(t=t, v_bi=v_bi, v_nb=v_nb, torus_degenerate=torus_degenerate)
