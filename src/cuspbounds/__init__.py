"""Diagrammatic cusp-geometry bounds for hyperbolic knots.

From purely combinatorial input (PD codes, braid words, pretzel or surface
parameters) this package computes upper bounds on the meridian length, the
shortest lambda-curve length, and the cusp area of a hyperbolic knot, plus
Dehn-surgery exceptional-slope filters and filled-volume windows. Everything
threshold-like runs in exact rational arithmetic.

This module re-exports what the CLI and the README's Library example use;
the bounding rules live in ``cuspbounds.bounds``, the slope tests in
``cuspbounds.surgery``.
"""

from .bounds import adequate_bounds
from .diagram import parse_pd
from .pipeline import AnalysisRequest, run_analyze, run_batch, run_surgery
from .states import invariants, resolve, twist_analysis
from .surgery import Slope

__all__ = [
    "AnalysisRequest",
    "Slope",
    "adequate_bounds",
    "invariants",
    "parse_pd",
    "resolve",
    "run_analyze",
    "run_batch",
    "run_surgery",
    "twist_analysis",
]
