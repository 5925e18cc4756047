"""Analysis pipelines behind the CLI: single inputs, slope sweeps, batch CSV.

Reports are plain JSON-shaped dicts (str-keyed dicts, lists, str, int, float,
bool, None; no tuples or float subclasses), with floats rounded to 12
significant digits. The CLI's writer prints them as ``json.dumps(report,
indent=2, sort_keys=True)`` does, byte for byte.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import bounds as bd
from . import states as st
from . import surgery as sg
from .diagram import PlanarDiagram, braid_closure, parse_braid, parse_pd
from .errors import (
    BudgetOutOfRange,
    CuspBoundsError,
    FileUnreadable,
    MissingHeader,
    MoebiusBand,
    NoSlopeSource,
    NonAlternatingBigon,
    NotAdequate,
    NotOneInputSource,
)

STATUS_OK = "ok"
STATUS_INAPPLICABLE = "inapplicable"


def parse_slope_list(text: str) -> tuple:
    """Parse ``p/q[,p/q...]``; invalid slopes become per-slope error entries
    instead of aborting the whole request."""
    out: list = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        num, sep, den = part.partition("/")
        try:
            out.append(sg.Slope(int(num), int(den) if sep else 1))
        except ValueError as exc:
            out.append({"slope": part, "error": {"code": "InvalidSlope", "message": str(exc)}})
    return tuple(out)


@dataclass(frozen=True)
class AnalysisRequest:
    """One input source plus options; exactly one source must be set."""

    pd: str | None = None
    braid: str | None = None
    pretzel: tuple[int, int, int] | None = None
    pair: tuple[int, int, int] | None = None
    budget: Fraction | None = None
    volume: float | None = None
    slopes: tuple = ()
    prime_asserted: bool = False

    def __post_init__(self) -> None:
        sources = [s for s in (self.pd, self.braid, self.pretzel, self.pair) if s is not None]
        if len(sources) != 1:
            raise NotOneInputSource("exactly one input source must be given")


def _error(exc: CuspBoundsError) -> dict:
    return {"code": exc.code, "message": str(exc)}


def _add_criterion(report: dict, pair: bd.SurfacePairData, budget: Fraction | None) -> None:
    """Report the criterion with its budget as a float, which must be finite,
    and non-zero for a non-zero budget, as the CLI's ``--budget`` demands."""
    if budget is None:
        return
    try:
        value = float(budget)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or (value == 0) != (budget == 0):
        raise BudgetOutOfRange("the budget's float overflows or underflows to zero")
    report["criterion"] = {"budget": value, "satisfied": bd.criterion_check(pair, budget)}


def _diagram_report(diagram: PlanarDiagram, request: AnalysisRequest) -> dict:
    inv = st.invariants(diagram)
    report: dict = {
        "status": STATUS_OK,
        "diagnostics": [],
        "invariants": inv,
        "bounds": None,
        "slopes": None,
    }
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
        return report
    try:
        rules = [("adequate", bd.adequate_bounds(inv))]
    except (NotAdequate, MoebiusBand) as exc:
        report["diagnostics"].append(str(exc))
        if isinstance(exc, MoebiusBand):
            report["status"] = STATUS_INAPPLICABLE
        elif request.budget is not None or request.slopes:
            report["diagnostics"].append("budget and slope analysis need an adequate diagram")
        return report
    t = inv["t"]
    if t is not None:
        rules.append(("twist", bd.twist_bound(diagram.c, t)))
        if t >= 2:
            rules.append(("twist_area", bd.twist_area_bound(t)))
    report["bounds"] = bd.best_bounds(rules)

    pair = bd.SurfacePairData(-inv["chiA"], -inv["chiB"], 2 * diagram.c)
    _add_criterion(report, pair, request.budget)
    if request.slopes:
        report["slopes"] = run_surgery(request.slopes, c=inv["c"], g_t=inv["gT"], volume=request.volume)
    return report


def _surface_report(
    request: AnalysisRequest, kind: str, value, pair: bd.SurfacePairData, rule: tuple[str, dict]
) -> dict:
    """Report for an input given by its surface pair rather than a diagram,
    bounded by the one ``(rule id, values)`` pair ``rule``."""
    report = {
        "status": STATUS_OK,
        "diagnostics": ["slope analysis needs a diagram source"] if request.slopes else [],
        "input": {"kind": kind, "value": list(value)},
        "invariants": None,
        "bounds": bd.best_bounds([rule]),
        "slopes": None,
    }
    _add_criterion(report, pair, request.budget)
    return report


def run_analyze(request: AnalysisRequest) -> dict:
    """Full analysis chain for one input; returns a JSON-shaped report."""
    if request.pair is not None:
        pair = bd.SurfacePairData(*request.pair)
        rule = ("general", bd.general_bounds(pair))
        return _surface_report(request, "pair", request.pair, pair, rule)
    if request.pretzel is not None:
        pair, values = bd.pretzel_bounds(bd.PretzelParams(*request.pretzel))
        report = _surface_report(request, "pretzel", request.pretzel, pair, ("pretzel", values))
        report["surfacePair"] = {
            "absChi1": pair.abs_chi_1,
            "absChi2": pair.abs_chi_2,
            "intersection": pair.intersection,
        }
        return report
    if request.braid is not None:
        word = parse_braid(request.braid)
        diagram = braid_closure(word)
        report = _diagram_report(diagram, request)
        report["input"] = {"kind": "braid", "value": request.braid}
        report["braidVerdict"] = bd.braid_criterion(word, request.prime_asserted)
        return report
    diagram = parse_pd(request.pd)
    report = _diagram_report(diagram, request)
    report["input"] = {"kind": "pd", "value": diagram.pd_string()}
    return report


# --------------------------------------------------------------------------
# Surgery sweeps
# --------------------------------------------------------------------------

def run_surgery(
    slopes: tuple,
    delta: Fraction | None = None,
    c: int | None = None,
    g_t: int | None = None,
    montesinos_t: int | None = None,
    volume: float | None = None,
) -> list[dict]:
    """One entry per slope, with thresholds from a Montesinos twist number, else
    an explicit delta, else (c, g) counts, which also give length floors: the
    filter verdicts and the window of the twist number or of ``volume``. A
    window refused for a slope is its entry's ``error`` for Montesinos knots,
    which rest on it, and its ``windowError`` elsewhere. Error entries from
    :func:`parse_slope_list` in ``slopes`` pass through untouched."""
    montesinos = montesinos_t is not None
    if montesinos:
        tests = sg.MONTESINOS
    elif delta is not None:
        tests = sg.SlopeThresholds(3 * (1 + Fraction(delta)))
    elif c is None or g_t is None:
        raise NoSlopeSource("need delta, (c, g), or a Montesinos twist number")
    else:
        tests = sg.SlopeThresholds(bd.adequate_bounds_from_counts(c, g_t)["meridian"])
    lengths = not montesinos and delta is None
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
    out = []
    for slope in slopes:
        if isinstance(slope, dict):
            out.append(slope)
            continue
        q = abs(slope.q)
        entry = {"p": slope.p, "q": slope.q}
        error = refused
        if scale is not None:
            try:
                lower, hit = tests.window(q, scale)
            except CuspBoundsError as exc:
                error = _error(exc)
        if error is not None and montesinos:
            entry["error"] = error
        else:
            non_exc, two_pi = tests.filter(q)
            found = scale is not None and error is None
            entry.update(lengthLower=bd.sig12(tests.length(q)) if lengths else None,
                         nonExceptional=non_exc, twoPiExceeded=two_pi,
                         volumeWindow={"lower": bd.sig12(lower), "upper": upper} if found else None,
                         rule=rule if found else "filter")
            if error is not None:
                entry["windowError"] = error
            elif found and hit:
                entry["boundaryHit"] = True
        out.append(entry)
    return out


# --------------------------------------------------------------------------
# Batch CSV cross-checks
# --------------------------------------------------------------------------

@dataclass
class BatchResult:
    """The report rows of a batch run, one dict per CSV row."""

    rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        counts = Counter(row["status"] for row in self.rows)
        return {"rows": self.rows, "summary": {s: counts[s] for s in ("pass", "fail", "skip")}}


def _check_row(row: dict) -> dict:
    """The batch report row of one CSV row: ``pass`` or ``fail`` with the
    computed meridian bound against the reference, or ``skip`` with a note."""
    name = (row.get("name") or "").strip() or "<unnamed>"
    result = {"name": name, "status": "skip", "computedBound": None,
              "referenceMeridian": None, "slack": None, "note": ""}
    try:
        reference = float(row["reference_meridian"])
        if not math.isfinite(reference) or reference <= 0:
            raise ValueError
    except (KeyError, TypeError, ValueError):
        result["note"] = "bad reference_meridian value"
        return result
    volume_text = (row.get("reference_volume") or "").strip()
    if volume_text:
        try:
            volume = float(volume_text)
            if not math.isfinite(volume) or volume <= 0:
                raise ValueError
        except ValueError:
            result["note"] = "bad reference_volume value"
            return result
    try:
        report = run_analyze(AnalysisRequest(pd=row.get("pd") or ""))
    except CuspBoundsError as exc:
        result["note"] = f"{exc.code}: {exc}"
        return result
    if report["status"] != STATUS_OK or report["bounds"] is None:
        result["note"] = "; ".join(report["diagnostics"]) or "no bounds"
        return result
    computed = report["bounds"]["meridian"]["value"]
    result.update(status="pass" if computed >= reference else "fail", computedBound=computed,
                  referenceMeridian=reference, slack=computed - reference)
    return result


def run_batch(path: str) -> BatchResult:
    """Cross-check every CSV row as it is read; a computed bound below the
    tabulated geodesic length is a theory violation and marks the row failed.
    A file that cannot be opened, decoded or parsed as CSV (a field longer
    than the ``csv`` module's limit, say) raises ``FileUnreadable``."""
    result = BatchResult()
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames
            if header is None or not {"name", "pd", "reference_meridian"}.issubset(header):
                raise MissingHeader(
                    "CSV must have header columns name, pd, reference_meridian"
                )
            result.rows = [_check_row(row) for row in reader]
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FileUnreadable(f"cannot decode {path}: {exc}") from exc
    return result
