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
    CuspBoundsError,
    FileUnreadable,
    MissingHeader,
    NoSlopeSource,
    NonAlternatingBigon,
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


def _slope_verdicts(
    tests: sg.SlopeThresholds, slopes: tuple, volume: float | None, lengths: bool = False
) -> list[dict]:
    """One entry per slope, with length floors if ``lengths``; the volume is checked once."""
    volume_error = None
    if volume is not None:
        try:
            volume = sg.checked_volume(volume)
            upper = bd.sig12(volume)
        except CuspBoundsError as exc:
            volume_error = exc
    out = []
    for slope in slopes:
        if isinstance(slope, dict):
            out.append(slope)
            continue
        q = abs(slope.q)
        non_exc, two_pi = tests.filter(q)
        length = bd.sig12(tests.length(q)) if lengths else None
        entry = {"p": slope.p, "q": slope.q, "lengthLower": length, "nonExceptional": non_exc,
                 "twoPiExceeded": two_pi, "volumeWindow": None, "rule": "filter"}
        if volume_error is not None:
            entry["windowError"] = _error(volume_error)
        elif volume is not None:
            try:
                lower, hit = tests.window(q, volume)
            except CuspBoundsError as exc:
                entry["windowError"] = _error(exc)
            else:
                entry["volumeWindow"] = {"lower": bd.sig12(lower), "upper": upper}
                entry["rule"] = "surgery_window"
                if hit:
                    entry["boundaryHit"] = True
        out.append(entry)
    return out


def _montesinos_verdicts(t: int, slopes: tuple) -> list[dict]:
    """One entry per slope; the twist number is checked once."""
    try:
        scale, upper = sg.montesinos_scale(t)
    except CuspBoundsError as exc:
        return [s if isinstance(s, dict) else {"p": s.p, "q": s.q, "error": _error(exc)}
                for s in slopes]
    upper = bd.sig12(upper)
    out = []
    for slope in slopes:
        if isinstance(slope, dict):
            out.append(slope)
            continue
        q = abs(slope.q)
        try:
            lower, hit = sg.MONTESINOS.window(q, scale)
        except CuspBoundsError as exc:
            out.append({"p": slope.p, "q": slope.q, "error": _error(exc)})
            continue
        non_exc, two_pi = sg.MONTESINOS.filter(q)
        window = {"lower": bd.sig12(lower), "upper": upper}
        entry = {"p": slope.p, "q": slope.q, "lengthLower": None, "nonExceptional": non_exc,
                 "twoPiExceeded": two_pi, "volumeWindow": window, "rule": "montesinos_window"}
        if hit:
            entry["boundaryHit"] = True
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

    rules = [("adequate", bd.adequate_bounds(inv))]
    if twist is not None:
        rules.append(("twist", bd.twist_bound(diagram.c, twist.t)))
        if twist.t >= 2:
            rules.append(("twist_area", bd.twist_area_bound(twist.t)))
    report["bounds"] = bd.best_bounds(rules)

    pair = bd.SurfacePairData(abs(inv.chi_a), abs(inv.chi_b), 2 * diagram.c)
    _add_criterion(report, pair, request.budget)
    if request.slopes:
        tests = sg.SlopeThresholds(inv.delta)
        report["slopes"] = _slope_verdicts(tests, request.slopes, request.volume, lengths=True)
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
    """Per-slope verdicts from a Montesinos twist number, else an explicit
    delta, else (c, g) counts, which also give length floors. ``slopes`` may mix
    parsed slopes with error entries from :func:`parse_slope_list`, which pass
    through untouched."""
    if montesinos_t is not None:
        return _montesinos_verdicts(montesinos_t, slopes)
    if delta is not None:
        return _slope_verdicts(sg.SlopeThresholds(delta), slopes, volume)
    if c is None or g_t is None:
        raise NoSlopeSource("need delta, (c, g), or a Montesinos twist number")
    return _slope_verdicts(sg.counts_thresholds(c, g_t), slopes, volume, lengths=True)


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
