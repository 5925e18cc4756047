"""The benchmark's tracer (``perfbench/tracing.py``) finds every function it times.

The tracer looks its functions up by module attribute when ``--trace 1``
starts, so a renamed or deleted one would fail only there; installing it
here fails the suite instead.
"""

from pathlib import Path

import cuspbounds
import cuspbounds.cli  # noqa: F401  (the tracer times cli.main)
from cuspbounds.pipeline import AnalysisRequest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"


def test_tracer_installs_on_the_implementations(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # Each traced name is the function its layer module defines, not an alias,
    # and each imported copy is that same function.
    for layer, names in tracing.LAYERS.items():
        for name in names:
            fn = vars(getattr(cuspbounds, layer))[name]
            assert (fn.__module__, fn.__name__) == (f"cuspbounds.{layer}", name)
    for module, layer, names in tracing.IMPORTED:
        for name in names:
            imported = getattr(getattr(cuspbounds, module), name)
            assert imported is getattr(getattr(cuspbounds, layer), name)

    original = cuspbounds.bounds.best_bounds
    tracer = tracing.Tracer(cuspbounds)
    tracer.install()
    try:
        report = cuspbounds.pipeline.run_analyze(AnalysisRequest(pd=FIG8))
    finally:
        tracer.uninstall()
    assert cuspbounds.bounds.best_bounds is original
    assert report["bounds"]["meridian"] == {"value": 1.5, "rule": "adequate"}
    traced = {span[1] for span in tracer.spans}
    assert {"pipeline.run_analyze", "diagram.parse_pd", "bounds.best_bounds"} <= traced
    # One state path: the all-A and all-B circles both come from resolve,
    # called by invariants. A span is (id, name, parent id, ...).
    [inv_id] = [span[0] for span in tracer.spans if span[1] == "states.invariants"]
    resolve_parents = [span[2] for span in tracer.spans if span[1] == "states.resolve"]
    assert resolve_parents == [inv_id, inv_id]
