"""Analysis pipelines behind the CLI: single inputs, slope sweeps, batch CSV.

One builder, :func:`_report`, writes the report of every input and batch
row. Reports are plain JSON-shaped dicts (str-keyed dicts, lists, str, int,
float, bool, None; no tuples or float subclasses). Computed floats are rounded
to 12 significant digits; echoed inputs (``budget``, ``referenceMeridian``)
are floats as read. These dicts are the one spelling of the report shape: the
CLI writes both its JSON and its text form from them alone.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from . import bounds as bd
from . import states as st
from . import surgery as sg
from .diagram import PlanarDiagram, braid_closure, parse_braid, parse_pd
from .errors import (
    BoundOutOfRange,
    BudgetOutOfRange,
    CuspBoundsError,
    FileUnreadable,
    InvalidSlope,
    MissingHeader,
    MoebiusBand,
    NoSlopeSource,
    NonAlternatingBigon,
    NotAdequate,
    NotOneInputSource,
    cut,
    read_int,
)

STATUS_OK = "ok"
STATUS_INAPPLICABLE = "inapplicable"


def parse_slope_list(text: str) -> tuple:
    """Parse ``p/q[,p/q...]``; invalid slopes become per-slope error entries
    instead of aborting the whole request. ``p`` and ``q`` are read by
    :func:`errors.read_int`."""
    out: list = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        num, sep, den = part.partition("/")
        try:
            p, q = read_int(num), read_int(den) if sep else 1
            out.append(sg.Slope(p, q))
        except ValueError as exc:
            out.append({"slope": part, "error": {"code": "InvalidSlope", "message": str(exc)}})
    return tuple(out)


class AnalysisRequest(namedtuple(
        "AnalysisRequest", "pd braid pretzel pair budget volume slopes")):
    """One input source plus options; exactly one source must be set."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too

    def __new__(cls, pd: str | None = None, braid: str | None = None,
                pretzel: tuple[int, int, int] | None = None,
                pair: tuple[int, int, int] | None = None, budget: Fraction | None = None,
                volume: float | None = None, slopes: tuple = ()) -> AnalysisRequest:
        if sum(s is not None for s in (pd, braid, pretzel, pair)) != 1:
            raise NotOneInputSource("exactly one input source must be given")
        return tuple.__new__(cls, (pd, braid, pretzel, pair, budget, volume, slopes))


def _error(exc: CuspBoundsError) -> dict:
    return {"code": exc.code, "message": str(exc)}


def _diagram_rules(diagram: PlanarDiagram, report: dict) -> list | None:
    """The ``(rule id, values)`` pairs that bound ``diagram``, or ``None`` if no
    rule applies; its invariants, twist counts and diagnostics go into ``report``."""
    inv = report["invariants"] = st.invariants(diagram)
    try:
        inv.update(st.twist_analysis(diagram, inv))
    except NonAlternatingBigon as exc:
        report["diagnostics"].append(f"{exc.code}: {exc}")
        inv.update(dict.fromkeys(st.TWIST_KEYS))
    if inv["torusDegenerate"]:
        report["status"] = STATUS_INAPPLICABLE
        report["diagnostics"].append(
            "torus-degenerate / non-hyperbolic: bigons form a cycle through every crossing"
        )
        return None
    try:
        rules = [("adequate", bd.adequate_bounds(inv))]
    except (NotAdequate, MoebiusBand) as exc:
        report["diagnostics"].append(str(exc))
        if isinstance(exc, MoebiusBand):
            report["status"] = STATUS_INAPPLICABLE
        return None
    t = inv["t"]
    if t is not None:
        rules.append(("twist", bd.twist_bound(diagram.c, t)))
        if t >= 2:
            rules.append(("twist_area", bd.twist_area_bound(t)))
    return rules


def _report(request: AnalysisRequest, diagram: PlanarDiagram | None = None) -> dict:
    """The report of ``diagram``, or else of the request's pair or pretzel triple.
    Each is bounded through a surface pair (an adequate diagram's checkerboard
    pair), which decides the criterion; the least exact meridian bound keys the
    slope sweep. Surface bounds must have finite, non-zero floats, and so must a
    non-zero budget, as the CLI's ``--budget`` demands."""
    report: dict = {"status": STATUS_OK, "diagnostics": [], "invariants": None,
                    "bounds": None, "slopes": None}
    if diagram is not None:
        rules = _diagram_rules(diagram, report)
        if rules is None:
            if report["status"] == STATUS_OK and (request.budget is not None or request.slopes):
                report["diagnostics"].append("budget and slope analysis need an adequate diagram")
            return report
        pair = None  # the checkerboard pair, built only for a budget
    elif request.pair is not None:
        kind, value = "pair", request.pair
        pair = bd.SurfacePairData(*value)
        rules = [("general", bd.general_bounds(pair))]
    else:
        kind, value = "pretzel", request.pretzel
        pair, values = bd.pretzel_bounds(bd.PretzelParams(*value))
        rules = [("pretzel", values)]
        report["surfacePair"] = {"absChi1": pair.abs_chi_1, "absChi2": pair.abs_chi_2,
                                 "intersection": pair.intersection}
    try:
        report["bounds"] = bd.best_bounds(rules)
    except OverflowError:
        if diagram is not None:
            raise
    if diagram is None:
        report["input"] = {"kind": kind, "value": list(value)}
        # Every surface bound is positive, so a 0 is a float that underflowed.
        if report["bounds"] is None or 0 in [e["value"] for e in report["bounds"]["candidates"]]:
            raise BoundOutOfRange(f"{kind} {','.join(map(cut, value))}: "
                                  f"a {rules[0][0]} bound has no finite, non-zero float")
    budget = request.budget
    if budget is not None:
        try:
            as_float = float(budget)
        except OverflowError:
            as_float = math.inf
        if not math.isfinite(as_float) or (as_float == 0) != (budget == 0):
            raise BudgetOutOfRange("the budget's float overflows or underflows to zero")
        if pair is None:
            inv = report["invariants"]
            pair = bd.SurfacePairData(-inv["chiA"], -inv["chiB"], 2 * diagram.c)
        report["criterion"] = {"budget": as_float, "satisfied": bd.criterion_check(pair, budget)}
    if request.slopes:
        meridian = min(values["meridian"] for _, values in rules if "meridian" in values)
        report["slopes"] = run_surgery(request.slopes, meridian, volume=request.volume)
    return report


def run_analyze(request: AnalysisRequest) -> dict:
    """Full analysis chain for one input; returns a JSON-shaped report."""
    word = diagram = None
    if request.braid is not None:
        word = parse_braid(request.braid)
        diagram = braid_closure(word)
    elif request.pd is not None:
        diagram = parse_pd(request.pd)
    report = _report(request, diagram)
    if word is not None:
        report["input"] = {"kind": "braid", "value": request.braid}
        report["braidVerdict"] = bd.braid_criterion(word)
    elif diagram is not None:
        report["input"] = {"kind": "pd", "value": diagram.pd_string()}
    return report


# --------------------------------------------------------------------------
# Surgery sweeps
# --------------------------------------------------------------------------

def run_surgery(
    slopes: tuple,
    meridian: Fraction | int | None = None,
    montesinos_t: int | None = None,
    volume: float | None = None,
    lengths: bool = True,
) -> list[dict]:
    """One entry per slope, with thresholds from exactly one of ``meridian``,
    an exact upper bound M on the meridian length, and a Montesinos twist
    number (M = 3). Past the filter verdicts, M gives the length floor
    3.35 |q| / M unless ``lengths`` is false, and the window of ``volume``; a
    twist number gives its own window and no length floor. A window refused
    for a slope is its entry's ``error`` for Montesinos knots, which rest on
    it, and its ``windowError`` elsewhere; an |q| whose length floor is too
    large for a float is refused (``InvalidSlope``) as the entry's ``error``.
    Error entries from :func:`parse_slope_list` in ``slopes`` pass through
    untouched.

    An entry past ``p`` and ``q`` depends on |q| alone, so each distinct |q|
    is decided once per call; entries copy their nested dicts and share none."""
    montesinos = montesinos_t is not None
    if montesinos == (meridian is not None):
        raise NoSlopeSource("need exactly one of a meridian bound and a Montesinos twist number")
    tests = sg.MONTESINOS if montesinos else sg.SlopeThresholds(meridian)
    rule = "montesinos_window" if montesinos else "surgery_window"
    scale = refused = None
    try:
        if montesinos:
            scale, upper = sg.montesinos_scale(montesinos_t)
            upper = bd.sig12(upper)
        elif volume is not None:
            scale = sg.checked_volume(volume)
            upper = bd.sig12(scale)
    except CuspBoundsError as exc:
        refused = _error(exc)
    tails: dict = {}  # |q| -> (the entry past p and q, the key of its nested dict or None)
    out = []
    for slope in slopes:
        if type(slope) is dict:
            out.append(slope)
            continue
        p, q = slope
        abs_q = abs(q)
        known = tails.get(abs_q)
        if known is None:
            error, fatal = refused, montesinos  # fatal: the error is the whole entry
            if scale is not None:
                try:
                    lower, hit = tests.window(abs_q, scale)
                except CuspBoundsError as exc:
                    error = _error(exc)
            try:
                length = bd.sig12(tests.length(abs_q)) if lengths and not montesinos else None
            except InvalidSlope as exc:
                error, fatal = _error(exc), True
            if error is not None and fatal:
                tail, nested = {"error": error}, "error"
            else:
                non_exc, two_pi = tests.filter(abs_q)
                found = scale is not None and error is None
                window = {"lower": bd.sig12(lower), "upper": upper} if found else None
                tail = {"lengthLower": length, "nonExceptional": non_exc, "twoPiExceeded": two_pi,
                        "volumeWindow": window, "rule": rule if found else "filter"}
                nested = "volumeWindow" if found else None
                if error is not None:
                    tail["windowError"], nested = error, "windowError"
                elif found and hit:
                    tail["boundaryHit"] = True
            known = tails[abs_q] = tail, nested
        tail, nested = known
        entry = tail.copy()
        entry["p"], entry["q"] = p, q
        if nested is not None:
            entry[nested] = tail[nested].copy()
        out.append(entry)
    return out


# --------------------------------------------------------------------------
# Batch CSV cross-checks
# --------------------------------------------------------------------------

class BatchResult(namedtuple("BatchResult", "rows")):
    """The report rows of a batch run, one dict per CSV row."""

    __slots__ = ()

    def __new__(cls, rows: list[dict] | None = None) -> BatchResult:
        return tuple.__new__(cls, ([] if rows is None else rows,))

    def to_dict(self) -> dict:
        counts = Counter(row["status"] for row in self.rows)
        return {"rows": self.rows, "summary": {s: counts[s] for s in ("pass", "fail", "skip")}}


# The request of every batch row: PD text, with no budget, volume or slopes.
_ROW_REQUEST = AnalysisRequest(pd="")


def _check_row(row: dict) -> dict:
    """The batch report row of one CSV row: ``pass`` or ``fail`` with the
    computed meridian bound against the reference, or ``skip`` with a note."""
    name = (row.get("name") or "").strip() or "<unnamed>"
    result = {"name": name, "status": "skip", "computedBound": None,
              "referenceMeridian": None, "slack": None, "note": ""}
    reference = None  # the meridian; reference_volume may be empty, and is checked, not used
    for column in ("reference_meridian", "reference_volume"):
        text = row.get(column) or ""
        if reference and not text.strip():
            break
        try:
            value = float(text)  # with read_number's character rule, at float()'s cost
        except ValueError:
            value = 0.0
        if not 0 < value < math.inf or "_" in text or text.lstrip()[:1] == "+":
            result["note"] = f"bad {column} value"
            return result
        reference = reference or value
    # run_analyze's two steps for PD text, without the canonical PD text of
    # its "input" entry, which a row does not print.
    try:
        report = _report(_ROW_REQUEST, parse_pd(row.get("pd") or ""))
    except CuspBoundsError as exc:
        result["note"] = f"{exc.code}: {exc}"
        return result
    if report["status"] != STATUS_OK or report["bounds"] is None:
        result["note"] = "; ".join(report["diagnostics"]) or "no bounds"
        return result
    computed = report["bounds"]["meridian"]["value"]
    result.update(status="pass" if computed >= reference else "fail", computedBound=computed,
                  referenceMeridian=reference, slack=bd.sig12(computed - reference))
    return result


def run_batch(path: str) -> BatchResult:
    """Cross-check every CSV row as it is read; a computed bound below the
    tabulated geodesic length is a theory violation and marks the row failed.
    A file that cannot be opened, decoded or parsed as CSV (a field longer
    than the ``csv`` module's limit, say) raises ``FileUnreadable``."""
    import csv  # here, not at the top: a cold start of the CLI has no use for it
    from itertools import zip_longest

    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or not {"name", "pd", "reference_meridian"}.issubset(header):
                raise MissingHeader(
                    "CSV must have header columns name, pd, reference_meridian"
                )
            # csv.DictReader's row dicts but for extra fields, keyed None: blank
            # rows are skipped, missing columns are None, and a repeated column
            # is read at its last place.
            rows = [_check_row(dict(zip_longest(header, row))) for row in reader if row]
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FileUnreadable(f"cannot decode {path}: {exc}") from exc
    return BatchResult(rows)
