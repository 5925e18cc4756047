"""Analysis pipelines behind the CLI: single inputs, slope sweeps, batch CSV.

Reports are plain JSON-shaped dicts (str/int/float/bool/None containers), so
serialization is ``json.dumps`` and parsing is ``json.loads``; floats are
rounded to 12 significant digits on the way out.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import bounds as bd
from . import states as st
from . import surgery as sg
from .diagram import PlanarDiagram, braid_closure, parse_braid, parse_pd
from .errors import (
    BadDiagramCounts,
    CuspBoundsError,
    FileUnreadable,
    MissingHeader,
    NonAlternatingBigon,
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
            slope = sg.Slope(int(num), int(den) if sep else 1)
        except ValueError as exc:
            out.append({"slope": part, "error": {"code": "InvalidSlope", "message": str(exc)}})
            continue
        out.append(slope)
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
            raise ValueError("exactly one input source must be given")


def _slope_verdicts(
    delta: Fraction,
    slopes: tuple,
    volume: float | None,
    c: int | None = None,
    g_t: int | None = None,
) -> list[dict]:
    delta = sg.checked_delta(delta)
    out = []
    for slope in slopes:
        if isinstance(slope, dict):
            out.append(slope)
            continue
        non_exc, two_pi = sg.exceptional_filter(delta, slope)
        verdict = sg.SlopeVerdict(
            p=slope.p,
            q=slope.q,
            length_lower=(
                sg.slope_length_lower(c, g_t, slope) if c is not None and g_t is not None else None
            ),
            non_exceptional=non_exc,
            two_pi_exceeded=two_pi,
            rule="filter",
        )
        entry = verdict.to_dict()
        if volume is not None:
            try:
                window = sg.surgery_volume_window(delta, slope, volume)
                entry["volumeWindow"] = window.to_dict()["volumeWindow"]
                entry["rule"] = window.rule
                if window.boundary_hit:
                    entry["boundaryHit"] = True
            except CuspBoundsError as exc:
                entry["windowError"] = {"code": exc.code, "message": str(exc)}
        out.append(entry)
    return out


def _add_criterion(report: dict, pair: bd.SurfacePairData, budget: Fraction | None) -> None:
    if budget is not None:
        report["criterion"] = {"budget": float(budget), "satisfied": bd.criterion_check(pair, budget)}


def _diagram_report(diagram: PlanarDiagram, request: AnalysisRequest) -> dict:
    inv = st.invariants(diagram)
    report: dict = {
        "status": STATUS_OK,
        "diagnostics": [],
        "invariants": inv.to_dict(),
        "bounds": None,
        "slopes": None,
    }
    twist = None
    try:
        twist = st.twist_analysis(diagram, inv)
        report["invariants"].update(twist.to_dict())
    except NonAlternatingBigon as exc:
        report["diagnostics"].append(f"{exc.code}: {exc}")
        report["invariants"].update({"t": None, "vBi": None, "vNb": None, "torusDegenerate": None})

    if twist is not None and twist.torus_degenerate:
        report["status"] = STATUS_INAPPLICABLE
        report["diagnostics"].append(
            "torus-degenerate / non-hyperbolic: bigons form a cycle through every crossing"
        )
        return report
    if not inv.adequate:
        report["diagnostics"].append("diagram is not adequate; no diagrammatic bound applies")
        if request.budget is not None or request.slopes:
            report["diagnostics"].append("budget and slope analysis need an adequate diagram")
        return report
    if inv.chi_a == 0 or inv.chi_b == 0:
        report["status"] = STATUS_INAPPLICABLE
        report["diagnostics"].append(
            "a checkerboard surface is a Moebius band; (2, p) torus knot, not hyperbolic"
        )
        return report

    reports = [bd.adequate_bounds(inv)]
    if twist is not None:
        meridian = bd.BoundValue(bd.twist_bound(diagram.c, twist.t), bd.RULE_TWIST)
        reports.append(bd.BoundsReport(meridian_upper=meridian))
        if twist.t >= 2:
            area = bd.BoundValue(bd.twist_area_bound(twist.t), bd.RULE_TWIST_AREA)
            reports.append(bd.BoundsReport(cusp_area_upper=area))
    report["bounds"] = bd.best_bounds(reports).to_dict()

    pair = bd.SurfacePairData(abs(inv.chi_a), abs(inv.chi_b), 2 * diagram.c)
    _add_criterion(report, pair, request.budget)
    if request.slopes:
        report["slopes"] = _slope_verdicts(
            inv.delta, request.slopes, request.volume, c=diagram.c, g_t=inv.g_t_diagram
        )
    return report


def _surface_report(
    request: AnalysisRequest, kind: str, value, pair: bd.SurfacePairData, bounds: bd.BoundsReport
) -> dict:
    """Report for an input given by its surface pair rather than a diagram."""
    report = {
        "status": STATUS_OK,
        "diagnostics": ["slope analysis needs a diagram source"] if request.slopes else [],
        "input": {"kind": kind, "value": list(value)},
        "invariants": None,
        "bounds": bounds.to_dict(),
        "slopes": None,
    }
    _add_criterion(report, pair, request.budget)
    return report


def run_analyze(request: AnalysisRequest) -> dict:
    """Full analysis chain for one input; returns a JSON-shaped report."""
    if request.pair is not None:
        pair = bd.SurfacePairData(*request.pair)
        return _surface_report(request, "pair", request.pair, pair, bd.general_bounds(pair))
    if request.pretzel is not None:
        pair, rep = bd.pretzel_bounds(bd.PretzelParams(*request.pretzel))
        report = _surface_report(request, "pretzel", request.pretzel, pair, rep)
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
        report["braidVerdict"] = bd.braid_criterion(word, request.prime_asserted).value
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
    """Per-slope verdicts from an explicit delta, (c, g) counts, or a
    Montesinos twist number. ``slopes`` may mix parsed slopes with error
    entries from :func:`parse_slope_list`, which pass through untouched."""
    if montesinos_t is not None:
        out = []
        for slope in slopes:
            if isinstance(slope, dict):
                out.append(slope)
                continue
            try:
                out.append(sg.montesinos_window(montesinos_t, slope).to_dict())
            except CuspBoundsError as exc:
                out.append(
                    {"p": slope.p, "q": slope.q, "error": {"code": exc.code, "message": str(exc)}}
                )
        return out
    if delta is None:
        if c is None or g_t is None:
            raise ValueError("need delta, (c, g), or a Montesinos twist number")
        if c < 1 or g_t < 0:
            raise BadDiagramCounts(f"need c >= 1 and g >= 0, got c={c}, g={g_t}")
        delta = Fraction(2 * g_t - 2, c)
    return _slope_verdicts(delta, slopes, volume, c=c, g_t=g_t)


# --------------------------------------------------------------------------
# Batch CSV cross-checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossCheckResult:
    """Computed meridian bound vs a tabulated reference length for one row."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    computed_bound: float | None = None
    reference_meridian: float | None = None
    slack: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "computedBound": self.computed_bound,
            "referenceMeridian": self.reference_meridian,
            "slack": self.slack,
            "note": self.note,
        }


@dataclass
class BatchResult:
    rows: list[CrossCheckResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if r.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.rows if r.status == "skip")

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "summary": {"pass": self.passed, "fail": self.failed, "skip": self.skipped},
        }


def _check_row(row: dict) -> CrossCheckResult:
    name = (row.get("name") or "").strip() or "<unnamed>"
    try:
        reference = float(row["reference_meridian"])
        if not math.isfinite(reference) or reference <= 0:
            raise ValueError
    except (KeyError, TypeError, ValueError):
        return CrossCheckResult(name, "skip", note="bad reference_meridian value")
    volume_text = (row.get("reference_volume") or "").strip()
    if volume_text:
        try:
            volume = float(volume_text)
            if not math.isfinite(volume) or volume <= 0:
                raise ValueError
        except ValueError:
            return CrossCheckResult(name, "skip", note="bad reference_volume value")
    try:
        report = run_analyze(AnalysisRequest(pd=row.get("pd") or ""))
    except CuspBoundsError as exc:
        return CrossCheckResult(name, "skip", note=f"{exc.code}: {exc}")
    if report["status"] != STATUS_OK or report["bounds"] is None:
        return CrossCheckResult(name, "skip", note="; ".join(report["diagnostics"]) or "no bounds")
    computed = report["bounds"]["meridian"]["value"]
    slack = computed - reference
    status = "pass" if computed >= reference else "fail"
    return CrossCheckResult(name, status, computed, reference, slack)


def run_batch(path: str) -> BatchResult:
    """Cross-check every CSV row as it is read; a computed bound below the
    tabulated geodesic length is a theory violation and marks the row failed."""
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
    except UnicodeDecodeError as exc:
        raise FileUnreadable(f"cannot decode {path}: {exc}") from exc
    return result
