"""Expected outputs for the generated inputs, computed without cuspbounds.

Every generated diagram is a braid closure, so the oracle works on the braid
picture rather than on PD codes: state circles are counted by following
strand segments between crossings, and faces are read off the columns
between neighbouring strand positions. It shares no code with the package;
the formulas come from the package's documented rules (bounds and surgery
module docstrings).

A braid is ``(n, word)`` with ``word`` a list of ``(generator, exponent)``
syllables. The crossing convention is the documented one: a positive
generator crosses the strand from position i over the strand from position
i + 1, and the all-B smoothing of a positive crossing is the vertical
(Seifert) one.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# Volume of the regular ideal octahedron, 4 x Catalan's constant.
V8 = 3.663862376708876
EXCLUSION = Fraction(360, 67)  # 18 / 3.35
AREA_FLOOR = Fraction(67, 20)  # 3.35


# ----------------------------------------------------------------- matching

class Sub(dict):
    """Expected mapping whose keys must match; the actual one may have more."""


class Re:
    """Expected string that must fully match a regular expression."""

    def __init__(self, pattern: str):
        self.pattern = re.compile(pattern, re.S)

    def __repr__(self) -> str:
        return f"Re({self.pattern.pattern!r})"


def matches(actual, expected) -> bool:
    """Plain dicts need equal key sets, floats agree to 1e-9 relative."""
    if isinstance(expected, Re):
        return isinstance(actual, str) and expected.pattern.fullmatch(actual) is not None
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        if not isinstance(expected, Sub) and actual.keys() != expected.keys():
            return False
        return all(k in actual and matches(actual[k], v) for k, v in expected.items())
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(matches(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, float) and not isinstance(actual, bool):
        return isinstance(actual, (int, float)) and math.isclose(
            actual, expected, rel_tol=1e-9, abs_tol=1e-12
        )
    return type(actual) is type(expected) and actual == expected


# ------------------------------------------------------------------ braids

def crossings(word) -> list[tuple[int, int]]:
    """One ``(generator, sign)`` per crossing, top to bottom."""
    return [(g, 1 if e > 0 else -1) for g, e in word for _ in range(abs(e))]


def component_count(n: int, word) -> int:
    perm = list(range(n))
    for g, e in word:
        if e % 2:
            perm[g - 1], perm[g] = perm[g], perm[g - 1]
    seen, cycles = [False] * n, 0
    for s in range(n):
        if not seen[s]:
            cycles += 1
            while not seen[s]:
                seen[s], s = True, perm[s]
    return cycles


def _state(n: int, xs, all_b: bool) -> tuple[int, bool]:
    """(circle count, whether some crossing joins a circle to itself).

    Nodes are strand segments: segment p < n is the top of position p, and
    every crossing starts two new segments below it. Each segment has
    exactly two ends, so circles are the components of a 2-regular graph.
    """
    nbr: list[list[int]] = [[] for _ in range(n + 2 * len(xs))]

    def link(u, v):
        nbr[u].append(v)
        nbr[v].append(u)

    cur = list(range(n))
    ends = []
    nxt = n
    for g, sign in xs:
        a = g - 1
        ia, ib, oa, ob = cur[a], cur[a + 1], nxt, nxt + 1
        nxt += 2
        vertical = (sign > 0) == all_b
        if vertical:
            link(ia, oa)
            link(ib, ob)
        else:
            link(ia, ib)
            link(oa, ob)
        ends.append((ia, ib, oa, vertical))
        cur[a], cur[a + 1] = oa, ob
    for p in range(n):
        link(cur[p], p)
    comp = [-1] * len(nbr)
    circles = 0
    for start in range(len(nbr)):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = circles
        while stack:
            for v in nbr[stack.pop()]:
                if comp[v] < 0:
                    comp[v] = circles
                    stack.append(v)
        circles += 1
    loop = any(
        comp[ia] == (comp[ib] if vertical else comp[oa]) for ia, ib, oa, vertical in ends
    )
    return circles, loop


def _bigons(n: int, xs) -> tuple[int, bool]:
    """(alternating bigon count, whether a non-alternating bigon exists).

    Column i (between positions i and i + 1) is cut into regions by its s_i
    crossings; a region is a bigon when no s_(i-1) or s_(i+1) crossing
    touches it. The faces left of position 1 and right of position n are
    bounded by every s_1 (s_(n-1)) crossing. A bigon alternates exactly when
    its two crossings have the same sign.
    """
    alternating, non_alternating = 0, False
    pairs = []
    for i in range(1, n):
        events = [k for k, (g, _) in enumerate(xs) if abs(g - i) <= 1]
        own = [j for j, k in enumerate(events) if xs[k][0] == i]
        if len(own) < 2:
            continue
        for j0, j1 in zip(own, own[1:] + own[:1]):
            if (j1 - j0 - 1) % len(events) == 0:
                pairs.append((events[j0], events[j1]))
    for g in {1, n - 1}:
        outer = [k for k, (h, _) in enumerate(xs) if h == g]
        if len(outer) == 2:
            pairs.append(tuple(outer))
            if n == 2:  # both outer faces are bounded by s_1 alone
                pairs.append(tuple(outer))
    for k0, k1 in pairs:
        if xs[k0][1] == xs[k1][1]:
            alternating += 1
        else:
            non_alternating = True
    return alternating, non_alternating


def facts(n: int, word) -> dict:
    """Diagram invariants of a knotted braid closure."""
    xs = crossings(word)
    c = len(xs)
    v_a, loop_a = _state(n, xs, all_b=False)
    v_b, loop_b = _state(n, xs, all_b=True)
    g_t = (2 - v_a - v_b + c) // 2
    v_bi, nab = _bigons(n, xs)
    return {
        "c": c,
        "vA": v_a,
        "vB": v_b,
        "gT": g_t,
        "aAdequate": not loop_a,
        "bAdequate": not loop_b,
        "nab": nab,
        "vBi": v_bi,
    }


# ------------------------------------------------------------ diagram report

NAB = r"NonAlternatingBigon: non-alternating bigon between crossings \d+ and \d+"
NOT_ADEQUATE = "diagram is not adequate; no diagrammatic bound applies"
NEEDS_ADEQUATE = "budget and slope analysis need an adequate diagram"
TORUS = "torus-degenerate / non-hyperbolic: bigons form a cycle through every crossing"
MOEBIUS = "a checkerboard surface is a Moebius band; (2, p) torus knot, not hyperbolic"


def _bound(value, rule) -> dict:
    return {"value": float(value), "rule": rule}


def report(f: dict, *, budget: Fraction | None = None, slopes=(), volume=None) -> dict:
    """Expected ``run_analyze`` report for a diagram with facts ``f``."""
    c, v_a, v_b, g_t = f["c"], f["vA"], f["vB"], f["gT"]
    adequate = f["aAdequate"] and f["bAdequate"]
    delta = Fraction(2 * g_t - 2, c)
    inv = Sub(
        c=c, vA=v_a, vB=v_b, chiA=v_a - c, chiB=v_b - c, gT=g_t,
        delta={"num": delta.numerator, "den": delta.denominator},
        aAdequate=f["aAdequate"], bAdequate=f["bAdequate"], adequate=adequate,
    )
    diagnostics: list = []
    t = None
    if f["nab"]:
        diagnostics.append(Re(NAB))
        inv.update(t=None, vBi=None, vNb=None, torusDegenerate=None)
    else:
        torus = f["vBi"] == c
        t = 1 if torus else c - f["vBi"]
        inv.update(t=t, vBi=f["vBi"], vNb=v_a + v_b - f["vBi"], torusDegenerate=torus)
        if torus:
            return Sub(status="inapplicable", diagnostics=[TORUS], invariants=inv, bounds=None)
    if not adequate:
        diagnostics.append(NOT_ADEQUATE)
        if budget is not None or slopes:
            diagnostics.append(NEEDS_ADEQUATE)
        return Sub(status="ok", diagnostics=diagnostics, invariants=inv, bounds=None, slopes=None)
    if v_a == c or v_b == c:
        return Sub(status="inapplicable", diagnostics=diagnostics + [MOEBIUS], invariants=inv)

    candidates = {
        "meridian": [(3 + Fraction(6 * g_t - 6, c), "adequate")],
        "lambda": [(Fraction(3 * c + 6 * g_t - 6), "adequate")],
        "cuspArea": [(9 * c * (1 + delta) ** 2, "adequate")],
    }
    if t is not None:
        candidates["meridian"].append((3 + Fraction(3 * t - 6, c), "twist"))
        if t >= 2:
            candidates["cuspArea"].append((10.0 * math.sqrt(3.0) * (t - 1), "twist_area"))
    bounds = Sub(
        {q: _bound(*min(cands, key=lambda vr: Fraction(vr[0]))) for q, cands in candidates.items()}
    )
    out = Sub(status="ok", diagnostics=diagnostics, invariants=inv, bounds=bounds)
    if budget is not None:
        chi_sum = (c - v_a) + (c - v_b)
        out["criterion"] = {"budget": float(budget), "satisfied": chi_sum <= budget / 6 * 2 * c}
    out["slopes"] = slope_entries(slopes, delta, volume, c, g_t) if slopes else None
    return out


def braid_verdict(n: int, word) -> str:
    exps = [e for _, e in word]
    if not (all(e > 0 for e in exps) or all(e < 0 for e in exps)) or min(map(abs, exps)) < 2:
        return "Inapplicable"
    return "AdequateOnly"  # the benchmark never asserts primality


# ------------------------------------------------------------------ slopes

def _error(code: str) -> Sub:
    return Sub(code=code)


def slope_entries(slopes, delta: Fraction, volume, c=None, g_t=None) -> list:
    """Expected per-slope entries; ``slopes`` holds ``(text, p, q)`` with
    ``p, q = None`` for text that is not a slope in lowest terms."""
    out = []
    exclusion = EXCLUSION * (1 + delta)
    threshold = 6 * (1 + delta)
    for text, p, q in slopes:
        if p is None:
            out.append({"slope": text, "error": _error("InvalidSlope")})
            continue
        aq = abs(q)
        entry = {
            "p": p,
            "q": q,
            "lengthLower": (
                None if c is None else float(AREA_FLOOR * aq * c / (3 * c + 6 * g_t - 6))
            ),
            "nonExceptional": aq > exclusion,
            "twoPiExceeded": aq > threshold,
            "volumeWindow": None,
            "rule": "filter",
        }
        if volume is not None:
            if aq < threshold:
                entry["windowError"] = _error("SlopeTooSmall")
            else:
                factor = 1 - 36 * (1 + delta) ** 2 / Fraction(aq) ** 2
                entry["volumeWindow"] = {
                    "lower": float(volume) * float(factor) ** 1.5,
                    "upper": float(volume),
                }
                entry["rule"] = "surgery_window"
                if aq == threshold:
                    entry["boundaryHit"] = True
        out.append(entry)
    return out


def montesinos_entries(slopes, t: int) -> list:
    out = []
    for text, p, q in slopes:
        if p is None:
            out.append({"slope": text, "error": _error("InvalidSlope")})
            continue
        aq = abs(q)
        if aq < 6:
            out.append({"p": p, "q": q, "error": _error("SlopeTooSmall")})
            continue
        factor = float(1 - Fraction(36, aq * aq)) ** 1.5
        entry = {
            "p": p,
            "q": q,
            "lengthLower": None,
            "nonExceptional": True,
            "twoPiExceeded": aq > 6,
            "volumeWindow": {
                "lower": max(0.0, (V8 / 4.0) * (t - 9) * factor),
                "upper": 2.0 * V8 * t,
            },
            "rule": "montesinos_window",
        }
        if aq == 6:
            entry["boundaryHit"] = True
        out.append(entry)
    return out
