"""Benchmark for cuspbounds: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload large_pd --seed 1 --seconds 10 --trace 0

Workloads (see METRICS.md for why each exists and what it should move):

* ``large_pd``    -- ``pipeline.run_analyze`` on six diagrams of c ~ 20,000;
* ``batch_csv``   -- ``pipeline.run_batch`` on a 2,000-row CSV;
* ``slope_sweep`` -- in-process ``cli.main(argv)`` over slope grids.

Inputs and their expected outputs are generated from the seed before timing
starts; every output is checked against them after its call returns. Each
workload is a closed loop with one caller, run over whole passes of its
inputs until ``--seconds`` have passed. Calls are timed in process CPU time
and expressed in reference units (see ``reference_work``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every input
once untraced and once traced and prints the per-layer metrics. The last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import inputs
import oracle
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 21
# After every call the reference work runs for this share of the call's CPU
# time, and at least REF_MIN_S seconds.
REF_SHARE = 0.2
REF_MIN_S = 0.01
# slope_sweep reports p90, which needs ten samples beyond it.
MIN_OPS = {"large_pd": 1, "batch_csv": 1, "slope_sweep": 120}

_IMPORT_TIMER = """
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
t = time.process_time()
import cuspbounds, cuspbounds.cli
dt = time.process_time() - t
if not cuspbounds.__file__.startswith(src):
    sys.exit(f"imported cuspbounds from {cuspbounds.__file__}, not {src}")
print(dt)
"""


def setup_seconds() -> float:
    """Median CPU time to import the package in a fresh interpreter. The
    first interpreter is not counted: it may compile the bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC)],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
        if i:
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def reference_work() -> tuple[int, Fraction, str]:
    """A fixed slice of pure-Python work of the kinds the program does:
    tuple-keyed dicts, sets, ``Fraction`` arithmetic and string joins.

    On a shared VM the CPU speed can drift by 1.7x over minutes, so call
    costs are reported in reference units (ru): the CPU time of one call of
    this function, measured right before and right after each program call.
    """
    table = {}
    for i in range(2000):
        table[(i % 61, i)] = i * 7 % 13
    seen = set()
    for (a, b), v in table.items():
        if v not in seen and a < 30:
            seen.add(b)
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, 3 * i + 1)
    return len(seen), total, " ".join(str(x) for x in range(300))


def reference_speed(cpu_seconds: float) -> float:
    """Calls of ``reference_work`` per CPU second, over at least
    ``cpu_seconds`` of CPU time."""
    calls, start = 0, process_time()
    while True:
        reference_work()
        calls += 1
        elapsed = process_time() - start
        if elapsed >= cpu_seconds:
            return calls / elapsed


def import_package():
    sys.path.insert(0, str(SRC))
    import cuspbounds
    import cuspbounds.cli  # noqa: F401

    if not Path(cuspbounds.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported cuspbounds from {cuspbounds.__file__}")
    return cuspbounds


# ----------------------------------------------------------------- workloads
#
# Each workload gives its inputs, a call that runs the program on one input
# (the only timed code), a check returning (attempted, failed) with None
# standing for a call that raised, and the count of items (crossings, rows,
# slopes) one input carries.

class LargePd:
    def __init__(self, cb, seed: int):
        self.ops = inputs.large_pd(seed)
        self.pipeline = cb.pipeline

    def call(self, op):
        p = self.pipeline
        return p.run_analyze(p.AnalysisRequest(**{op["kind"]: op["text"]}))

    def check(self, op, report):
        return 1, 0 if report is not None and oracle.matches(report, op["expected"]) else 1

    def items(self, op):
        return op["c"]


class BatchCsv:
    def __init__(self, cb, seed: int):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"batch-{seed}.csv"
        self.ops = [{"path": str(path), "expected": inputs.batch_csv(seed, str(path))}]
        self.pipeline = cb.pipeline
        self.summary = []

    def call(self, op):
        return self.pipeline.run_batch(op["path"])

    def check(self, op, result):
        expected = op["expected"]
        if result is None:
            return len(expected), len(expected)
        got = result.to_dict()
        self.summary.append(got["summary"])
        if len(got["rows"]) != len(expected):
            return len(expected), len(expected)
        return len(expected), sum(not oracle.matches(a, e) for a, e in zip(got["rows"], expected))

    def items(self, op):
        return len(op["expected"])


class SlopeSweep:
    def __init__(self, cb, seed: int):
        self.ops = inputs.slope_sweep(seed)
        self.cli = cb.cli
        self.output_bytes = []

    def call(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(op["argv"])
        return code, buf.getvalue()

    def check(self, op, result):
        if result is None:
            return 1, 1
        code, text = result
        self.output_bytes.append(len(text.encode()))
        ok = code == 0 and oracle.matches(json.loads(text), op["expected"])
        return 1, 0 if ok else 1

    def items(self, op):
        return op["slopes"]


WORKLOADS = {"large_pd": LargePd, "batch_csv": BatchCsv, "slope_sweep": SlopeSweep}


class Run:
    """Per-call CPU times of the whole process (all threads), the same in
    reference units, and the outcome counts of one side of a measurement."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.times: list[float] = []
        self.costs: list[float] = []
        self._speed = reference_speed(REF_MIN_S)

    def once(self, op) -> None:
        gc.collect()
        start = process_time()
        result = None
        try:
            result = self.w.call(op)
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc(file=sys.stderr)
        cpu = process_time() - start
        speed = reference_speed(max(REF_MIN_S, REF_SHARE * cpu))
        self.times.append(cpu)
        self.costs.append(cpu * (self._speed + speed) / 2)
        self._speed = speed
        self.items += self.w.items(op)
        try:
            attempted, failed = self.w.check(op, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            attempted, failed = self.w.check(op, None)
        self.attempted += attempted
        self.failed += failed


def measure(workload, seconds: float, min_ops: int) -> Run:
    run = Run(workload)
    start = perf_counter()
    while perf_counter() - start < seconds or len(run.times) < min_ops:
        for op in workload.ops:
            run.once(op)
    return run


def measure_traced(workload, tracer, seconds: float) -> tuple[Run, Run]:
    """Every input once untraced and once traced, alternating which goes
    first, so that both sides see the same inputs."""
    plain, traced = Run(workload), Run(workload)
    start, k = perf_counter(), 0
    while perf_counter() - start < seconds or not traced.times:
        for op in workload.ops:
            for side in ((plain, traced) if k % 2 == 0 else (traced, plain)):
                if side is traced:
                    tracer.install()
                try:
                    side.once(op)
                finally:
                    tracer.uninstall()
            k += 1
    return plain, traced


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cuspbounds" / "__init__.py").is_file():
        print(f"no cuspbounds sources under {SRC}", file=sys.stderr)
        return 2

    cb = import_package()
    workload = WORKLOADS[args.workload](cb, args.seed)
    # Generated inputs and expected outputs stay alive for the whole run;
    # keep them out of the collector's way so they do not tax timed calls.
    gc.collect()
    gc.freeze()

    if args.trace:
        tracer = tracing.Tracer(cb)
        plain, run = measure_traced(workload, tracer, args.seconds)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}.jsonl")
        layer = tracing.layer_metrics(tracer.spans, len(run.times))
        attempted = plain.attempted + run.attempted
        failed = plain.failed + run.failed
        rows = getattr(workload, "summary", [])
        sent = getattr(workload, "output_bytes", [])
        metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
        for status in ("pass", "fail", "skip"):
            value = statistics.fmean(r[status] for r in rows) if rows else 0.0
            metrics[f"pipeline.rows.{status}"] = metric(value, "count")
        metrics["cli.output_bytes"] = metric(statistics.fmean(sent) if sent else 0.0, "bytes")
        overhead = (sum(run.costs) / sum(plain.costs) - 1) * 100
        metrics["trace.overhead_pct"] = metric(overhead, "%")
    else:
        setup_s = setup_seconds()
        run = measure(workload, args.seconds, MIN_OPS[args.workload])
        attempted, failed = run.attempted, run.failed
        costs = run.costs
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "success_rate": metric(1 - failed / attempted, "ratio"),
            "items_per_ru": metric(run.items / sum(costs), "1/ru"),
            "cost_ru_p50": metric(statistics.median(costs), "ru"),
            "cost_ru_p90": metric(
                statistics.quantiles(costs, n=10, method="inclusive")[-1]
                if len(costs) > 1 else costs[0],
                "ru",
            ),
        }
        cpu_s = sum(run.times)
        print(
            f"{args.workload}: {len(costs)} calls, {run.items} items, "
            f"failed {failed}/{attempted}, {run.items / cpu_s:.0f} items per CPU s, "
            f"median {statistics.median(run.times) * 1e3:.1f} CPU ms per call, "
            f"1 ru = {cpu_s / sum(costs) * 1e3:.3f} CPU ms",
            file=sys.stderr,
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
