"""Seeded inputs for the three workloads, each paired with its expected output.

Everything here runs before timing starts and without importing cuspbounds:
the program later receives only the PD text, braid text, CSV path or argv
list built here. Workload shapes (sizes, family mix, slope-grid sizes) are
fixed; the seed picks the concrete words, rows and slopes, so that two seeds
give different inputs of the same cost.
"""

from __future__ import annotations

import csv
import math
import random
import re
from fractions import Fraction

import oracle

LARGE_C = 20_000
BATCH_ROWS = 2_000
# Rows per block of 25, by expected outcome; the blocks are shuffled together.
BATCH_MIX = {"pass": 14, "not_adequate": 3, "torus": 2, "malformed": 2, "link": 2, "bad_ref": 2}
SWEEP_CALLS_PER_KIND = 10
SWEEP_KINDS = ("delta", "counts", "montesinos", "analyze")


# ------------------------------------------------------------------ text

def braid_text(n: int, word) -> str:
    return f"{n}: " + " ".join(f"s{g}^{e}" for g, e in word)


def pd_text(n: int, word, rng: random.Random) -> str:
    """PD code of the closure, slots counterclockwise from the incoming
    under-strand: positive crossings read (NE, NW, SW, SE), negative ones
    (NW, SW, SE, NE). Edge labels are shuffled, since parsing renumbers
    them anyway."""
    cur = list(range(n))
    fresh = n
    raw = []
    for g, sign in oracle.crossings(word):
        a = g - 1
        nw, ne, sw, se = cur[a], cur[a + 1], fresh, fresh + 1
        fresh += 2
        raw.append((ne, nw, sw, se) if sign > 0 else (nw, sw, se, ne))
        cur[a], cur[a + 1] = sw, se
    closing = {cur[p]: p for p in range(n)}
    used = sorted({closing.get(x, x) for tup in raw for x in tup})
    names = rng.sample(range(1, 4 * len(used) + 1), len(used))
    label = dict(zip(used, names))
    return " ".join(
        "X[%d,%d,%d,%d]" % tuple(label[closing.get(x, x)] for x in tup) for tup in raw
    )


# -------------------------------------------------------------- families

def _walk(rng: random.Random, n: int, c_target: int, exponent) -> list:
    """Syllables on random generators, no two neighbours equal."""
    word, c = [], 0
    while c < c_target:
        g = rng.randint(1, n - 1)
        if word and word[-1][0] == g:
            continue
        e = exponent()
        word.append((g, e))
        c += abs(e)
    return word


def alternating(rng: random.Random, c_target: int, exps=(3, 5, 7)):
    """(s1^a s2^-b)^m, a and b odd and 3 not dividing m: a 3-braid knot."""
    a, b = rng.choice(exps), rng.choice(exps)
    m = max(1, round(c_target / (a + b)))
    while m % 3 == 0 or m * (a + b) < 4 or (min(a, b) == 1 and m < 2):
        m += 1
    sign = rng.choice((1, -1))
    return 3, [(1, sign * a), (2, -sign * b)] * m, (a, b, m)


def same_sign(rng: random.Random, n: int, c_target: int):
    """Same-signed braid with every exponent >= 2: adequate, not alternating."""
    sign = rng.choice((1, -1))
    while True:
        word = _walk(rng, n, max(c_target, 3 * n), lambda: sign * rng.randint(2, 5))
        if oracle.component_count(n, word) == 1:
            return n, word


def mixed(rng: random.Random, c_target: int, *, nab: bool):
    """Mixed-sign braid that is not adequate. On three strands with the
    generators alternating it has no non-alternating bigon; on four strands
    it gets one (s1^+ s3 s1^- and the like)."""
    n = 4 if nab else 3

    def exponent():
        return rng.choice((1, -1)) * rng.randint(1, 3)

    while True:
        if nab:
            word = _walk(rng, n, c_target, exponent)
        else:
            word = [(1 + i % 2, exponent()) for i in range(max(2, 2 * round(c_target / 4)))]
        if oracle.component_count(n, word) != 1:
            continue
        f = oracle.facts(n, word)
        if f["nab"] == nab and not (f["aAdequate"] and f["bAdequate"]):
            return n, word, f


# -------------------------------------------------------------- large_pd

def large_pd(seed: int) -> list[dict]:
    """Six analyses at c ~ 20k: three families, each once as PD text and
    once as a braid word."""
    rng = random.Random(seed)
    ops = []
    for family in ("alternating", "same_sign", "mixed"):
        for kind in ("braid", "pd"):
            if family == "alternating":
                n, word, (a, b, m) = alternating(rng, LARGE_C)
                f = oracle.facts(n, word)
                c = m * (a + b)
                closed = (c, 1 + m * a, 1 + m * b, 0, c - 2 * m)
                got = (f["c"], f["vA"] if word[0][1] > 0 else f["vB"],
                       f["vB"] if word[0][1] > 0 else f["vA"], f["gT"], f["vBi"])
                if got != closed or f["nab"]:
                    raise AssertionError(f"closed form {closed} disagrees with oracle {got}")
            elif family == "same_sign":
                n, word = same_sign(rng, 4, LARGE_C)
                f = oracle.facts(n, word)
            else:
                n, word, f = mixed(rng, LARGE_C, nab=kind == "pd")
            expected = oracle.report(f)
            if kind == "braid":
                text = braid_text(n, word)
                expected["input"] = {"kind": "braid", "value": text}
                expected["braidVerdict"] = oracle.braid_verdict(n, word)
            else:
                text = pd_text(n, word, rng)
                expected["input"] = oracle.Sub(kind="pd")
            ops.append({"kind": kind, "text": text, "c": f["c"], "expected": expected})
    return ops


# -------------------------------------------------------------- batch_csv

def _small_c(rng: random.Random) -> int:
    return int(rng.triangular(4, 48, 8))  # mean ~20


def _adequate_knot(rng: random.Random):
    """A small diagram with a reported meridian bound."""
    while True:
        c = _small_c(rng)
        if rng.random() < 0.5:
            n, word, _ = alternating(rng, c, exps=(1, 3, 5))
        else:
            n, word = same_sign(rng, rng.choice((3, 4)), c)
        f = oracle.facts(n, word)
        rep = oracle.report(f)
        if rep["status"] == "ok" and rep["bounds"] is not None:
            return n, word, f, rep


_SKIP = {"computedBound": None, "referenceMeridian": None, "slack": None}


def _corrupt(pd: str, rng: random.Random) -> str:
    tokens = pd.split(" ")
    i = rng.randrange(len(tokens))
    nums = re.findall(r"\d+", tokens[i])
    tokens[i] = rng.choice((
        "X[%s,%s,%s]" % tuple(nums[:3]),
        "X[%s,%s;%s,%s]" % tuple(nums),
        "X[%s,%s,%s,%s" % tuple(nums),
        "X[%s,-%s,%s,%s]" % tuple(nums),
        "Y[%s,%s,%s,%s]" % tuple(nums),
    ))
    return " ".join(tokens)


def _batch_row(rng: random.Random, outcome: str, name: str) -> tuple[dict, dict]:
    row = {"name": name, "reference_volume": ""}
    if outcome in ("pass", "bad_ref", "malformed"):
        n, word, f, rep = _adequate_knot(rng)
        row["pd"] = pd_text(n, word, rng)
        bound = rep["bounds"]["meridian"]["value"]
        if outcome == "pass":
            ref = round(bound * rng.uniform(0.3, 0.95), 6)
            row["reference_meridian"] = repr(ref)
            if rng.random() < 0.3:
                row["reference_volume"] = "%.6f" % rng.uniform(2.0, 20.0)
            return row, {
                "name": name, "status": "pass", "computedBound": bound,
                "referenceMeridian": ref, "slack": bound - ref, "note": "",
            }
        if outcome == "bad_ref":
            row["reference_meridian"] = rng.choice(("", "n/a", "-2.5", "0", "1,5"))
            return row, {"name": name, "status": "skip", **_SKIP,
                         "note": "bad reference_meridian value"}
        row["pd"] = _corrupt(row["pd"], rng)
        note = oracle.Re(r"MalformedToken: .*")
    elif outcome == "link":
        while True:
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            word = [(1, a), (2, -b)] * max(1, round(_small_c(rng) / (a + b)))
            if oracle.component_count(3, word) > 1:
                break
        row["pd"] = pd_text(3, word, rng)
        note = oracle.Re(r"MultiComponentLink: .*")
    elif outcome == "torus":
        p = 2 * (_small_c(rng) // 2) + 1
        row["pd"] = pd_text(2, [(1, rng.choice((p, -p)))], rng)
        note = oracle.TORUS
    else:  # not_adequate
        n, word, f = mixed(rng, _small_c(rng), nab=rng.random() < 0.5)
        row["pd"] = pd_text(n, word, rng)
        note = oracle.NOT_ADEQUATE
        if f["nab"]:
            note = oracle.Re(oracle.NAB + "; " + re.escape(oracle.NOT_ADEQUATE))
    row["reference_meridian"] = "%.4f" % rng.uniform(0.5, 3.0)
    return row, {"name": name, "status": "skip", **_SKIP, "note": note}


def batch_csv(seed: int, path: str) -> list[dict]:
    """Write the CSV to ``path``; return the expected row results in order."""
    rng = random.Random(seed)
    outcomes = [o for o, k in BATCH_MIX.items() for _ in range(k)]
    outcomes *= BATCH_ROWS // len(outcomes)
    rng.shuffle(outcomes)
    rows, expected = [], []
    for i, outcome in enumerate(outcomes):
        row, exp = _batch_row(rng, outcome, f"row{i:05d}")
        rows.append(row)
        expected.append(exp)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["name", "pd", "reference_meridian", "reference_volume"]
        )
        writer.writeheader()
        writer.writerows(rows)
    return expected


# ------------------------------------------------------------ slope_sweep

def _slope_grid(rng: random.Random, size: int) -> tuple[str, list]:
    """About 2% of the entries are not slopes in lowest terms."""
    texts, specs = [], []
    for _ in range(size):
        if rng.random() < 0.02:
            k = rng.randint(2, 6)
            text = f"{k * rng.randint(-9, 9)}/{k * rng.randint(0, 9)}"
            specs.append((text, None, None))
        else:
            while True:
                p, q = rng.randint(-60, 60), rng.randint(1, 40)
                if math.gcd(p, q) == 1:
                    break
            if rng.random() < 0.1:
                p, q = p, -q
            text = str(p) if q == 1 and rng.random() < 0.5 else f"{p}/{q}"
            specs.append((text, p, q))
        texts.append(text)
    return ",".join(texts), specs


def slope_sweep(seed: int) -> list[dict]:
    """CLI calls cycling through the four kinds; grid sizes are the same
    ten values, 500 to 3000 slopes, for every kind and seed."""
    rng = random.Random(seed)
    sizes = {
        kind: rng.sample([500 + round(2500 * k / (SWEEP_CALLS_PER_KIND - 1))
                          for k in range(SWEEP_CALLS_PER_KIND)], SWEEP_CALLS_PER_KIND)
        for kind in SWEEP_KINDS
    }
    calls = []
    for i in range(SWEEP_CALLS_PER_KIND):
        for kind in SWEEP_KINDS:
            grid, specs = _slope_grid(rng, sizes[kind][i])
            volume = float("%.6f" % rng.uniform(2.0, 40.0))
            if kind == "delta":
                delta = Fraction(2 * rng.randint(0, 8) - 2, rng.randint(3, 60))
                argv = ["surgery", f"--delta={delta}", f"--volume={volume!r}"]
                slopes = oracle.slope_entries(specs, delta, volume)
            elif kind == "counts":
                c, g = rng.randint(3, 60), rng.randint(0, 8)
                argv = ["surgery", f"--crossings={c}", f"--genus={g}", f"--volume={volume!r}"]
                slopes = oracle.slope_entries(specs, Fraction(2 * g - 2, c), volume, c, g)
            elif kind == "montesinos":
                t = rng.randint(2, 30)
                argv = ["surgery", f"--montesinos={t}"]
                slopes = oracle.montesinos_entries(specs, t)
            else:
                n, word, f, _ = _adequate_knot(rng)
                budget = Fraction(rng.randint(2, 40), rng.randint(1, 6))
                argv = ["analyze", pd_text(n, word, rng), f"--volume={volume!r}",
                        f"--budget={budget}"]
                expected = oracle.report(f, budget=budget, slopes=specs, volume=volume)
                expected["input"] = oracle.Sub(kind="pd")
            if kind != "analyze":
                expected = {"status": "ok", "diagnostics": [], "slopes": slopes}
            argv += [f"--slopes={grid}", "--format=json"]
            calls.append({"argv": argv, "slopes": len(specs), "expected": expected})
    return calls
