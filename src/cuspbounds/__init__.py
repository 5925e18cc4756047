"""Diagrammatic cusp-geometry bounds for hyperbolic knots.

From purely combinatorial input (PD codes, braid words, pretzel or surface
parameters) this package computes upper bounds on the meridian length, the
shortest lambda-curve length, and the cusp area of a hyperbolic knot, plus
Dehn-surgery exceptional-slope filters and filled-volume windows. Everything
threshold-like runs in exact rational arithmetic.
"""

from .bounds import (
    BraidVerdict,
    PretzelParams,
    SurfacePairData,
    adequate_bounds,
    adequate_bounds_from_counts,
    best_bounds,
    braid_criterion,
    criterion_check,
    general_bounds,
    pretzel_bounds,
    twist_area_bound,
    twist_bound,
)
from .diagram import (
    BraidWord,
    Face,
    PlanarDiagram,
    braid_closure,
    mirror,
    parse_braid,
    parse_pd,
)
from .pipeline import AnalysisRequest, run_analyze, run_batch, run_surgery
from .states import (
    DiagramInvariants,
    TwistSummary,
    invariants,
    resolve,
    twist_analysis,
)
from .surgery import (
    CONSTANTS,
    Slope,
    SurgeryConstants,
    exceptional_filter,
    montesinos_window,
    slope_length_lower,
    surgery_volume_window,
)

__all__ = [
    "AnalysisRequest",
    "BraidVerdict",
    "BraidWord",
    "CONSTANTS",
    "DiagramInvariants",
    "Face",
    "PlanarDiagram",
    "PretzelParams",
    "Slope",
    "SurfacePairData",
    "SurgeryConstants",
    "TwistSummary",
    "adequate_bounds",
    "adequate_bounds_from_counts",
    "best_bounds",
    "braid_closure",
    "braid_criterion",
    "criterion_check",
    "exceptional_filter",
    "general_bounds",
    "invariants",
    "mirror",
    "montesinos_window",
    "parse_braid",
    "parse_pd",
    "pretzel_bounds",
    "resolve",
    "run_analyze",
    "run_batch",
    "run_surgery",
    "slope_length_lower",
    "surgery_volume_window",
    "twist_analysis",
    "twist_area_bound",
    "twist_bound",
]
