"""End-to-end pipelines, JSON round trips, batch cross-checks, CLI."""

import codecs
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspbounds import (
    AnalysisRequest,
    Slope,
    invariants,
    run_analyze,
    run_batch,
    run_surgery,
)
from cuspbounds.bounds import adequate_bounds_from_counts
from cuspbounds.cli import main
from cuspbounds.diagram import BraidWord, braid_closure, parse_braid
from cuspbounds.errors import (
    BudgetOutOfRange,
    CuspBoundsError,
    DeltaOutOfRange,
    FileUnreadable,
    MissingHeader,
    NonFiniteVolume,
    NonPositiveBudget,
    NoSlopeSource,
    NotOneInputSource,
    read_int,
)
from cuspbounds.pipeline import _check_row, parse_slope_list
from cuspbounds.surgery import surgery_volume_window
from genutil import (
    HUGE_Q,
    fraction_montesinos_entries,
    closure_pd_text,
    crossing_labels,
    fraction_slope_entries,
    pd_text,
    random_adequate_knot_diagram,
    random_knot_diagram,
    weaving_braid,
)

DATA = Path(__file__).parent / "data" / "reference_meridians.csv"
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
SRC = Path(__file__).resolve().parent.parent / "src"


def strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in JSON output")

    return json.loads(text, parse_constant=reject)


class TestRunAnalyze:
    def test_fig8_report(self):
        report = run_analyze(AnalysisRequest(pd=FIG8))
        assert report["status"] == "ok"
        assert report["bounds"]["meridian"] == {"value": 1.5, "rule": "adequate"}
        inv = report["invariants"]
        assert (inv["c"], inv["vA"], inv["vB"], inv["gT"]) == (4, 3, 3, 0)
        assert inv["delta"] == {"num": -1, "den": 2}
        assert (inv["t"], inv["vBi"], inv["vNb"], inv["torusDegenerate"]) == (2, 2, 4, False)

    def test_trefoil_inapplicable(self):
        report = run_analyze(AnalysisRequest(pd=TREFOIL))
        assert report["status"] == "inapplicable"
        assert any("torus-degenerate" in d for d in report["diagnostics"])
        assert report["bounds"] is None

    def test_pretzel_report(self):
        report = run_analyze(AnalysisRequest(pretzel=(3, 5, 7)))
        assert report["bounds"]["meridian"] == {"value": 3.0, "rule": "pretzel"}
        assert report["surfacePair"] == {"absChi1": 11, "absChi2": 1, "intersection": 24}

    def test_pair_report_with_budget(self):
        report = run_analyze(AnalysisRequest(pair=(11, 1, 24), budget=Fraction(4)))
        assert report["bounds"]["meridian"]["value"] == 3.0
        assert report["criterion"] == {"budget": 4.0, "satisfied": True}

    @pytest.mark.parametrize(
        "budget, error",
        [
            (Fraction(10**400), BudgetOutOfRange),
            (Fraction(-(10**400)), BudgetOutOfRange),
            (Fraction(1, 10**400), BudgetOutOfRange),
            (math.inf, BudgetOutOfRange),
            (math.nan, BudgetOutOfRange),
            (Fraction(0), NonPositiveBudget),
            (-1e-300, NonPositiveBudget),
        ],
    )
    @pytest.mark.parametrize("source", [{"pair": (1, 1, 2)}, {"pd": FIG8}])
    def test_budget_is_refused_without_a_positive_finite_float(self, source, budget, error):
        # the report prints the budget as a float, so that float must exist
        with pytest.raises(error):
            run_analyze(AnalysisRequest(**source, budget=budget))

    def test_braid_report_includes_verdict(self):
        prime = run_analyze(AnalysisRequest(braid="3: s1^3 s2^3 s1^3 s2^3"))
        assert prime["braidVerdict"] == "MeridianUnderFour"
        # three trefoils summed: a composite closure, adequate only
        report = run_analyze(AnalysisRequest(braid="4: s1^3 s2^3 s3^3"))
        assert report["braidVerdict"] == "AdequateOnly"
        assert report["invariants"]["t"] == 3
        # the checkerboard bound 3 - 6/9 beats the twist bound 10/3; both
        # must be present among the candidates
        assert report["bounds"]["meridian"]["rule"] == "adequate"
        assert report["bounds"]["meridian"]["value"] == pytest.approx(3 - 6 / 9, abs=1e-10)
        twist_candidates = [
            cand
            for cand in report["bounds"]["candidates"]
            if cand["rule"] == "twist" and cand["quantity"] == "meridian"
        ]
        assert twist_candidates and twist_candidates[0]["value"] == pytest.approx(10 / 3)

    def test_fig8_slopes_and_windows(self):
        report = run_analyze(
            AnalysisRequest(
                pd=FIG8, slopes=parse_slope_list("1/3,1/5"), volume=2.029883212819
            )
        )
        first, second = report["slopes"]
        # delta = -1/2: threshold 6(1+delta) = 3, exclusion at 360/67 * 1/2
        assert first["q"] == 3 and first["nonExceptional"] is True
        assert first["boundaryHit"] is True
        assert first["volumeWindow"]["lower"] == 0.0
        assert second["volumeWindow"]["upper"] == pytest.approx(2.029883212819)

    def test_non_adequate_diagram_reports_no_bounds(self):
        report = run_analyze(AnalysisRequest(pd="X[1,1,2,2]"))
        assert report["status"] == "ok"
        assert report["bounds"] is None
        assert any("not adequate" in d for d in report["diagnostics"])

    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError):
            AnalysisRequest(pd=FIG8, braid="2: s1^3")
        with pytest.raises(ValueError):
            AnalysisRequest()

    def test_source_count_is_coded(self):
        for kwargs in ({"pd": FIG8, "braid": "2: s1^3"}, {}):
            with pytest.raises(NotOneInputSource) as info:
                AnalysisRequest(**kwargs)
            assert info.value.code == "NotOneInputSource"

    def test_json_round_trip(self):
        for request in (
            AnalysisRequest(pd=FIG8, slopes=parse_slope_list("1/5"), volume=2.03, budget=Fraction(2)),
            AnalysisRequest(pretzel=(3, 5, 7)),
            AnalysisRequest(pair=(11, 1, 24)),
            AnalysisRequest(braid="4: s1^3 s2^3 s3^3"),
        ):
            report = run_analyze(request)
            assert json.loads(json.dumps(report)) == report


class TestRunSurgery:
    def test_delta_zero_thresholds(self):
        verdicts = run_surgery(parse_slope_list("1/5,1/6,1/7,1/8"), meridian=3)
        assert [v["nonExceptional"] for v in verdicts] == [False, True, True, True]

    def test_counts_mode_has_length_floor(self):
        # M = 3 + (6g - 6)/c = 3 at c = 10, g = 1: the floor is 3.35 x 6 / 3
        meridian = adequate_bounds_from_counts(10, 1)["meridian"]
        assert run_surgery(parse_slope_list("1/6"), meridian)[0]["lengthLower"] == pytest.approx(6.7)
        assert run_surgery(parse_slope_list("1/6"), meridian, lengths=False)[0]["lengthLower"] is None

    def test_montesinos_mode(self):
        verdicts = run_surgery(parse_slope_list("1/7,1/5"), montesinos_t=10)
        assert verdicts[0]["volumeWindow"]["upper"] == pytest.approx(73.2772475342)
        assert verdicts[0]["lengthLower"] is None
        assert verdicts[1]["error"]["code"] == "SlopeTooSmall"

    def test_invalid_slope_entries_pass_through(self):
        verdicts = run_surgery(parse_slope_list("1/0,2/4,1/6"), meridian=Fraction(3))
        assert verdicts[0]["error"]["code"] == "InvalidSlope"
        assert verdicts[1]["error"]["code"] == "InvalidSlope"
        assert verdicts[2]["nonExceptional"] is True

    def test_needs_a_delta_source(self):
        with pytest.raises(ValueError):
            run_surgery((Slope(1, 6),))

    def test_missing_source_is_coded(self):
        for kwargs in ({}, {"volume": 5.0}, {"lengths": False}):
            with pytest.raises(NoSlopeSource):
                run_surgery((Slope(1, 6),), **kwargs)

    def test_both_sources_are_refused(self):
        # no precedence between the two: a sweep keys on one number
        for meridian in (3, Fraction(7, 2)):
            with pytest.raises(NoSlopeSource):
                run_surgery((Slope(1, 6),), meridian=meridian, montesinos_t=10)

    def test_huge_q_is_an_invalid_slope_entry(self):
        huge = 10**400  # the floor 67 |q| / 60 at M = 3 is past the largest float
        slopes = (Slope(1, huge), Slope(-3, -huge), Slope(1, 7))
        verdicts = run_surgery(slopes, meridian=3, volume=2.0)
        error = {"code": "InvalidSlope", "message": HUGE_Q}
        assert verdicts[:2] == [{"p": 1, "q": huge, "error": error},
                                {"p": -3, "q": -huge, "error": error}]
        assert verdicts[2]["rule"] == "surgery_window"
        # without a length floor the slope is decided as usual
        assert run_surgery(slopes, meridian=3, lengths=False)[0]["nonExceptional"] is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"meridian": 3, "lengths": False, "volume": 5.0},  # volumeWindow, and windowError below |q| = 6
            {"meridian": 3, "lengths": False, "volume": -1.0},  # a refused volume: windowError everywhere
            {"meridian": 3, "volume": 5.0},  # error for the huge |q|
            {"montesinos_t": 10},  # volumeWindow, and error below |q| = 6
            {"montesinos_t": 1},  # a refused twist number: error everywhere
        ],
    )
    def test_entries_share_no_dict(self, kwargs):
        slopes = parse_slope_list(f"1/7,-1/7,3/-7,-3/-7,1/2,-1/2,1/{10**400},-1/-{10**400}")
        pristine = run_surgery(slopes, **kwargs)
        for i in range(len(pristine)):
            entries = run_surgery(slopes, **kwargs)
            nested = [entries[i][key] for key in ("volumeWindow", "windowError", "error")
                      if isinstance(entries[i].get(key), dict)]
            assert nested
            for inner in nested:
                inner["mutated"] = True
            assert entries[:i] + entries[i + 1:] == pristine[:i] + pristine[i + 1:]
            assert run_surgery(slopes, **kwargs) == pristine


# Slopes p/q in lowest terms, a few with huge |q|, mixed with an error entry
# from the slope parser, which every sweep passes through untouched.
PASSTHROUGH = {"slope": "2/4", "error": {"code": "InvalidSlope", "message": "not a slope"}}
SLOPE_ITEMS = st.one_of(
    st.tuples(
        st.integers(-300, 300),
        st.one_of(st.integers(-300, 300), st.sampled_from([1000003, -1000003, 10**15 + 37])),
    )
    .filter(lambda pq: pq[1] != 0 and math.gcd(*pq) == 1)
    .map(lambda pq: Slope(*pq)),
    st.just(PASSTHROUGH),
)
# Lists in which |q| comes from a small pool with both signs of p and q, so
# that p/q, p/-q and -p/-q repeat and a sweep meets each |q| many times.
REPEATED_SLOPES = st.lists(
    st.one_of(
        st.tuples(
            st.integers(-8, 8),
            st.sampled_from([1, 2, 5, 6, 7, 12, 1000003, 10**400]),
            st.sampled_from([1, -1]),
        )
        .filter(lambda pqs: math.gcd(pqs[0], pqs[1]) == 1)
        .map(lambda pqs: Slope(pqs[0], pqs[1] * pqs[2])),
        st.just(PASSTHROUGH),
    ),
    max_size=40,
)
SLOPE_LISTS = st.one_of(st.lists(SLOPE_ITEMS, max_size=12), REPEATED_SLOPES)
VOLUMES = st.one_of(
    st.none(),
    st.floats(1e-6, 1e6),
    st.integers(-3, 40),
    st.sampled_from([0.0, -1.0, -0.5, float("nan"), float("inf"), float("-inf")]),
)


@st.composite
def deltas_for(draw, slopes):
    """delta with 1 + delta > 0; half of the draws put some slope exactly on
    the exclusion threshold (360/67)(1 + delta) or on 6(1 + delta)."""
    qs = [abs(s.q) for s in slopes if isinstance(s, Slope)]
    kind = draw(st.sampled_from(["free", "exclusion", "six"] if qs else ["free"]))
    if kind == "free":
        den = draw(st.integers(1, 60))
        return Fraction(draw(st.integers(1 - den, 10 * den)), den)
    q = draw(st.sampled_from(qs))
    return (Fraction(67 * q, 360) if kind == "exclusion" else Fraction(q, 6)) - 1


@st.composite
def pairs_for(draw, slopes):
    """A surface pair (|chi1|, |chi2|, i), whose meridian bound is M = 6s/i
    for s = |chi1| + |chi2|; half of the draws put some slope exactly on the
    exclusion threshold (120/67) M or on 2M = 6(1 + delta)."""
    qs = [abs(s.q) for s in slopes if isinstance(s, Slope) and abs(s.q) < 10**20]
    kind = draw(st.sampled_from(["free", "exclusion", "six"] if qs else ["free"]))
    if kind == "free":
        s, i = draw(st.integers(2, 400)), draw(st.integers(1, 2000))
    else:
        q, k = draw(st.sampled_from(qs)), draw(st.integers(2, 4))
        s, i = (67 * q * k, 720 * k) if kind == "exclusion" else (q * k, 12 * k)
    chi1 = draw(st.integers(1, s - 1))
    return chi1, s - chi1, i


class TestSweepsAgainstFractionOracle:
    """``run_surgery`` and the analyze slope list against the ``Fraction``
    oracles of ``genutil``, entry for entry and float for float."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), slopes=SLOPE_LISTS, volume=VOLUMES)
    def test_delta_sweep(self, data, slopes, volume):
        delta = data.draw(deltas_for(slopes))
        expected = fraction_slope_entries(slopes, delta=delta, volume=volume)
        meridian = 3 * (1 + delta)  # what `surgery --delta` passes
        assert run_surgery(tuple(slopes), meridian, volume=volume, lengths=False) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.tuples(st.integers(1, 80), st.integers(0, 12)).filter(
            lambda cg: cg[0] + 2 * cg[1] > 2  # 1 + delta = (c + 2g - 2)/c > 0
        ),
        slopes=SLOPE_LISTS,
        volume=VOLUMES,
    )
    def test_counts_sweep(self, counts, slopes, volume):
        c, g = counts
        expected = fraction_slope_entries(slopes, volume=volume, c=c, g=g)
        meridian = adequate_bounds_from_counts(c, g)["meridian"]  # what `surgery --crossings` passes
        assert run_surgery(tuple(slopes), meridian, volume=volume) == expected

    @settings(max_examples=200, deadline=None)
    @given(t=st.integers(-2, 40), slopes=SLOPE_LISTS)
    def test_montesinos_sweep(self, t, slopes):
        expected = fraction_montesinos_entries(slopes, t)
        assert run_surgery(tuple(slopes), montesinos_t=t) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        slopes=SLOPE_LISTS.filter(bool),
        volume=VOLUMES,
    )
    def test_analyze_slope_list(self, seed, slopes, volume):
        diagram = random_adequate_knot_diagram(random.Random(seed))
        request = AnalysisRequest(pd=diagram.pd_string(), slopes=tuple(slopes), volume=volume)
        report = run_analyze(request)
        if report["slopes"] is None:  # torus-degenerate: no slope analysis
            assert report["status"] == "inapplicable"
            return
        c, g = report["invariants"]["c"], report["invariants"]["gT"]
        assert report["slopes"] == fraction_slope_entries(slopes, volume=volume, c=c, g=g)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), slopes=SLOPE_LISTS.filter(bool), volume=VOLUMES)
    def test_pair_sweep(self, data, slopes, volume):
        triple = data.draw(pairs_for(slopes))
        report = run_analyze(AnalysisRequest(pair=triple, slopes=tuple(slopes), volume=volume))
        meridian = Fraction(6 * (triple[0] + triple[1]), triple[2])  # 6(|chi1| + |chi2|)/i
        assert report["diagnostics"] == []
        assert report["slopes"] == fraction_slope_entries(slopes, volume=volume, meridian=meridian)

    @settings(max_examples=100, deadline=None)
    @given(
        triple=st.tuples(*[st.integers(1, 40).map(lambda n: 2 * n + 1)] * 3),
        slopes=SLOPE_LISTS.filter(bool),
        volume=VOLUMES,
    )
    def test_pretzel_sweep(self, triple, slopes, volume):
        report = run_analyze(AnalysisRequest(pretzel=triple, slopes=tuple(slopes), volume=volume))
        # P(a, -b, -c): the all-A surface, |chi| = b + c - 1, against a spanning
        # surface with |chi| = 1, meeting it 2b + 2c times
        _, b, c = triple
        meridian = Fraction(6 * (b + c - 1 + 1), 2 * b + 2 * c)
        assert meridian == 3
        assert report["diagnostics"] == []
        assert report["slopes"] == fraction_slope_entries(slopes, volume=volume, meridian=meridian)


class TestOneBuilder:
    """A diagram is bounded through its checkerboard pair, so that pair given
    as ``pair`` must report what the diagram does."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 10**6),
        slopes=SLOPE_LISTS.filter(bool),
        volume=VOLUMES,
    )
    def test_diagram_and_its_checkerboard_pair_agree(self, data, seed, slopes, volume):
        diagram = random_adequate_knot_diagram(random.Random(seed))
        inv = invariants(diagram)
        pair = (-inv["chiA"], -inv["chiB"], 2 * diagram.c)
        meridian = Fraction(6 * (pair[0] + pair[1]), pair[2])
        # half of the budgets sit exactly on the meridian bound
        budget = data.draw(st.one_of(st.just(meridian), st.fractions(Fraction(1, 10), 10)))
        options = {"budget": budget, "slopes": tuple(slopes), "volume": volume}
        own = run_analyze(AnalysisRequest(pd=diagram.pd_string(), **options))
        if own["status"] != "ok":  # torus-degenerate: no bounds
            return
        given_pair = run_analyze(AnalysisRequest(pair=pair, **options))
        assert own["criterion"] == given_pair["criterion"]
        assert own["criterion"]["satisfied"] == (meridian <= budget)
        assert own["slopes"] == given_pair["slopes"]
        assert own["bounds"]["meridian"]["value"] == given_pair["bounds"]["meridian"]["value"]


class TestTurnedCrossings:
    """``parse_pd`` does not check that slot 0 is the incoming under-strand: a
    crossing turned by 180 degrees, ``X[c,d,a,b]`` for ``X[a,b,c,d]``, is read
    as well. The turn keeps the cyclic order, and so both smoothings, so every
    report must stay the same but for the canonical text it echoes and the
    crossing pair of a clasp, which the face walk may meet in another order."""

    @staticmethod
    def masked(report: dict) -> dict:
        report["input"]["value"] = None
        report["diagnostics"] = [re.sub(r"between crossings \d+ and \d+", "between crossings",
                                        line) for line in report["diagnostics"]]
        return report

    def test_a_turned_crossing_changes_no_report(self):
        rng = random.Random(180)
        diagnostics = set()
        for i in range(2000):
            d = (random_knot_diagram if i % 2 else random_adequate_knot_diagram)(rng, 14)
            labels = crossing_labels(d)
            turned = [x[2:] + x[:2] if rng.random() < 0.5 else x for x in labels]
            options = {"budget": Fraction(rng.randint(1, 40), 8), "volume": 5.5,
                       "slopes": (Slope(1, 7), Slope(2, rng.randint(1, 30) | 1))}
            texts = (pd_text([s for crossing in x for s in crossing]) for x in (labels, turned))
            own, other = (run_analyze(AnalysisRequest(pd=text, **options)) for text in texts)
            assert self.masked(own) == self.masked(other), d.pd_string()
            diagnostics.update(line.split(":")[0] for line in own["diagnostics"])
        assert "NonAlternatingBigon" in diagnostics  # some clasp pair was masked


class TestNonFiniteInput:
    def test_volume_window_refuses_non_finite(self):
        for vol in (float("nan"), float("inf")):
            with pytest.raises(NonFiniteVolume):
                surgery_volume_window(0, Slope(1, 7), vol)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_cli_rejects_non_finite_volume(self, capsys, value):
        for argv in (
            ["surgery", "--delta", "0", "--slopes", "1/7"],
            ["analyze", FIG8, "--slopes", "1/7"],
            ["braid", "4: s1^3 s2^3 s3^3", "--slopes", "1/7"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + [f"--volume={value}", "--format", "json"])
            assert excinfo.value.code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(
                f"argument --volume: not a number with a finite float: {value!r}\n")

    def test_non_finite_references_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(
            "name,pd,reference_meridian,reference_volume\n"
            f'good,"{FIG8}",1.0,2.0\n'
            f'nan_meridian,"{FIG8}",nan,\n'
            f'inf_meridian,"{FIG8}",inf,\n'
            f'nan_volume,"{FIG8}",1.0,nan\n'
            f'inf_volume,"{FIG8}",1.0,inf\n'
            # float() reads "1_0" as 10 and "+2" as 2; errors.read_number does not
            f'underscore_meridian,"{FIG8}",1_0,\n'
            f'plus_meridian,"{FIG8}",+2,\n'
            f'underscore_volume,"{FIG8}",1.0,1_0\n'
            f'plus_volume,"{FIG8}",1.0, +2\n'
            f'exponent_plus,"{FIG8}",1e+0,2E+0\n'
        )
        rows = run_batch(os.fspath(path)).rows
        notes = {row["name"]: (row["status"], row["note"]) for row in rows}
        assert notes == {
            "good": ("pass", ""),
            "nan_meridian": ("skip", "bad reference_meridian value"),
            "inf_meridian": ("skip", "bad reference_meridian value"),
            "nan_volume": ("skip", "bad reference_volume value"),
            "inf_volume": ("skip", "bad reference_volume value"),
            "underscore_meridian": ("skip", "bad reference_meridian value"),
            "plus_meridian": ("skip", "bad reference_meridian value"),
            "underscore_volume": ("skip", "bad reference_volume value"),
            "plus_volume": ("skip", "bad reference_volume value"),
            "exponent_plus": ("pass", ""),
        }
        assert main(["batch", os.fspath(path), "--format", "json"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["summary"] == {"pass": 2, "fail": 0, "skip": 8}

    def test_every_json_output_is_strict_json(self, capsys):
        for argv in (
            ["analyze", FIG8, "--slopes", "1/5,1/6,1/7", "--volume", "2.029883212819"],
            ["analyze", TREFOIL],
            ["analyze", "--pair", "11,1,24", "--budget", "4"],
            ["braid", "4: s1^3 s2^3 s3^3", "--slopes", "1/9", "--volume", "9.5"],
            ["pretzel", "3,5,7", "--budget", "3"],
            ["surgery", "--delta", "0", "--slopes", "1/5,1/6,x", "--volume", "5.5"],
            ["surgery", "--crossings", "10", "--genus", "1", "--slopes", "1/6"],
            ["surgery", "--montesinos", "10", "--slopes", "1/7,1/3"],
            ["batch", os.fspath(DATA)],
        ):
            assert main(argv + ["--format", "json"]) in (0, 2)
            strict_json(capsys.readouterr().out)


def row_from_run_analyze(name: str, pd: str, reference_text: str) -> dict:
    """The batch row of one CSV row, built from ``run_analyze``'s report."""
    row = {"name": name.strip() or "<unnamed>", "status": "skip", "computedBound": None,
           "referenceMeridian": None, "slack": None, "note": ""}
    # an optional minus, decimal digits, an optional point and exponent
    decimal = re.fullmatch(r"\s*-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?\s*", reference_text)
    reference = float(reference_text) if decimal else math.nan
    if not (math.isfinite(reference) and reference > 0):
        return {**row, "note": "bad reference_meridian value"}
    try:
        report = run_analyze(AnalysisRequest(pd=pd))
    except CuspBoundsError as exc:
        return {**row, "note": f"{exc.code}: {exc}"}
    if report["status"] != "ok" or report["bounds"] is None:
        return {**row, "note": "; ".join(report["diagnostics"]) or "no bounds"}
    computed = report["bounds"]["meridian"]["value"]
    return {**row, "status": "pass" if computed >= reference else "fail",
            "computedBound": computed, "referenceMeridian": reference,
            "slack": computed - reference}


def random_batch_row(rng: random.Random) -> tuple[str, str]:
    """PD text and reference text of a row of one random kind: a random knot
    diagram (adequate or not, some with a non-alternating bigon), a
    torus-degenerate closure, a two-component link, mangled PD text or a bad
    reference."""
    kind = rng.choice(["knot", "knot", "torus", "link", "malformed", "bad_reference"])
    pd = random_knot_diagram(rng, 16).pd_string()
    reference = f"{rng.uniform(0.5, 4.0):.3f}"
    if kind == "torus":
        pd = braid_closure(BraidWord(2, ((1, rng.choice([3, 5, 7, -3, -5])),))).pd_string()
    elif kind == "link":
        other = random_knot_diagram(rng, 8)
        shift = 2 * pd.count("X")
        pd += " " + pd_text([x + shift for x in other.slots])
    elif kind == "malformed":
        cut = rng.randrange(len(pd))
        pd = rng.choice([pd[:cut], pd[:cut] + "a" + pd[cut + 1:], pd + " X[1,2]", ""])
    elif kind == "bad_reference":
        reference = rng.choice(["", "abc", "0", "-1.5", "nan", "inf", "1_0", "+2", "1e+0"])
    return pd, reference


class TestRunBatch:
    def test_rows_match_run_analyze(self, tmp_path):
        with DATA.open(newline="", encoding="utf-8") as handle:
            table = [(r["name"], r["pd"], r["reference_meridian"]) for r in csv.DictReader(handle)]
        rng = random.Random(4242)
        table += [(f"random{i}", *random_batch_row(rng)) for i in range(300)]
        path = tmp_path / "table.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "pd", "reference_meridian"])
            writer.writerows(table)
        rows = run_batch(os.fspath(path)).rows
        assert rows == [row_from_run_analyze(*entry) for entry in table]
        statuses = {row["status"] for row in rows}
        notes = " ".join(row["note"] for row in rows)
        assert statuses == {"pass", "fail", "skip"}
        for expected in ("MultiComponentLink", "MalformedToken", "torus-degenerate",
                         "not adequate", "bad reference_meridian", "NonAlternatingBigon"):
            assert expected in notes

    def test_vetted_table_all_pass(self):
        result = run_batch(os.fspath(DATA))
        assert result.to_dict()["summary"] == {"pass": 5, "fail": 0, "skip": 0}
        by_name = {row["name"]: row for row in result.rows}
        fig8 = by_name["figure_eight"]
        assert fig8["computedBound"] == pytest.approx(1.5)
        assert fig8["slack"] == pytest.approx(0.5)

    def test_bad_rows_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "name,pd,reference_meridian\n"
            f'good,"{FIG8}",1.0\n'
            "mangled,X[1,2,3,garbage,1.0\n"
            f'degenerate,"{TREFOIL}",1.0\n'
            "badref,X[1,1,2,2],-3\n"
        )
        result = run_batch(os.fspath(path))
        assert result.to_dict()["summary"] == {"pass": 1, "fail": 0, "skip": 3}

    def test_theory_violation_fails(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(f'name,pd,reference_meridian\ntoobig,"{FIG8}",5.0\n')
        result = run_batch(os.fspath(path))
        assert result.to_dict()["summary"]["fail"] == 1
        assert result.rows[0]["slack"] == pytest.approx(-3.5)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MissingHeader):
            run_batch(os.fspath(path))
        path.write_text("name,reference_meridian\nrow,1.0\n")
        with pytest.raises(MissingHeader):
            run_batch(os.fspath(path))

    def test_a_byte_order_mark_is_read(self, tmp_path):
        path = tmp_path / "table.csv"
        reports = []
        for bom in (b"", codecs.BOM_UTF8):
            path.write_bytes(bom + f'name,pd,reference_meridian\nfig8,"{FIG8}",1.0\n'.encode())
            reports.append(run_batch(os.fspath(path)).to_dict())
        assert reports[0] == reports[1]
        assert reports[0]["summary"] == {"pass": 1, "fail": 0, "skip": 0}

    def test_rows_are_read_as_dict_reader_reads_them(self, tmp_path):
        # a byte-order mark, CRLF line ends, blank lines before, between and
        # after rows, a duplicated pd column (the last one is read), a quoted
        # name with a comma and a line break, a row too short to reach the
        # second pd column and a row with extra fields
        lines = [
            "name,pd,reference_meridian,pd,reference_volume", "", "",
            f'fig8,X[1,2,"{FIG8}",2.0', "",
            f'"comma, and\nbreak",,1.0,"{FIG8}",', f'short,"{FIG8}",1.0',
            f'long,,0.5,"{FIG8}",3.0,extra,"X[1,1,2,2]"', "lonely", "", "",
        ]
        path = tmp_path / "table.csv"
        path.write_bytes(codecs.BOM_UTF8 + "\r\n".join(lines).encode())
        with path.open(newline="", encoding="utf-8-sig") as handle:
            expected = [_check_row(row) for row in csv.DictReader(handle)]
        rows = run_batch(os.fspath(path)).rows
        assert rows == expected
        assert [(row["name"], row["status"]) for row in rows] == [
            ("fig8", "fail"), ("comma, and\nbreak", "pass"), ("short", "skip"),
            ("long", "pass"), ("lonely", "skip")]
        path.write_bytes(codecs.BOM_UTF8 + b"name,pd,reference_meridian\r\n\r\n")
        assert run_batch(os.fspath(path)).rows == []
        for text in (b"", b"\r\nname,pd,reference_meridian\r\nfig8,X[1,1,2,2],1.0\r\n"):
            path.write_bytes(text)
            with pytest.raises(MissingHeader):
                run_batch(os.fspath(path))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            run_batch(os.fspath(tmp_path / "nope.csv"))

    def test_decode_error_after_first_rows(self, tmp_path):
        # well past the reader's first buffered chunk, so some rows have
        # already been checked when the bad bytes are decoded
        rows = "".join(f'row{i},"{FIG8}",1.0\n' for i in range(400))
        path = tmp_path / "table.csv"
        path.write_bytes(b"name,pd,reference_meridian\n" + rows.encode() + b"bad,\xff\xfe,1.0\n")
        with pytest.raises(FileUnreadable, match="cannot decode"):
            run_batch(os.fspath(path))

    def test_field_over_the_csv_limit_is_unreadable(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text(f'name,pd,reference_meridian\nlong,"{"X" * (limit + 1)}",1.0\n')
        with pytest.raises(FileUnreadable):
            run_batch(os.fspath(path))
        assert main(["batch", os.fspath(path)]) == 1
        assert capsys.readouterr().err.startswith("error[FileUnreadable]:")
        assert csv.field_size_limit() == limit  # the process-wide limit is left alone

    def test_order_independence(self, tmp_path):
        base = DATA.read_text().strip().splitlines()
        header, rows = base[0], base[1:]
        shuffled = [header] + rows[::-1]
        path = tmp_path / "shuffled.csv"
        path.write_text("\n".join(shuffled) + "\n")
        forward = {r["name"]: r for r in run_batch(os.fspath(DATA)).rows}
        backward = {r["name"]: r for r in run_batch(os.fspath(path)).rows}
        assert forward == backward
        assert [r["name"] for r in run_batch(os.fspath(path)).rows] == [
            row.split(",")[0] for row in rows[::-1]
        ]


class TestCli:
    def test_analyze_exit_codes(self, capsys):
        # golden 000 and 002 pin exit 2 for the trefoil and 0 for the figure-eight
        assert main(["analyze", "X[1,2"]) == 1
        capsys.readouterr()

    def test_analyze_json_output(self, capsys):
        assert main(["analyze", FIG8, "--format", "json", "--budget", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["meridian"]["value"] == 1.5
        assert report["criterion"]["satisfied"] is True

    def test_pair_mode(self, capsys):
        assert main(["analyze", "--pair", "11,1,24", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["meridian"]["value"] == 3.0

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("0,1,4", "surfaces with chi = 0 carry no length bound"),
            ("1,1,0", "boundary intersection number must be positive"),
        ],
    )
    def test_degenerate_pair_has_a_code(self, capsys, pair, message):
        assert main(["analyze", "--pair", pair]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[DegenerateSurfacePair]: {message}\n"

    def test_braid_subcommand(self, capsys):
        assert main(["braid", "3: s1^3 s2^3 s1^3 s2^3", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["braidVerdict"] == "MeridianUnderFour"

    def test_braid_link_closure_errors(self, capsys):
        assert main(["braid", "3: s1^3 s2^3 s1^3"]) == 1
        assert "ClosureIsLink" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["2: s1^999999999999", "2: s1^-60000 s1^-60000",
                                      "999999999999: s1^3"])
    def test_braid_crossing_cap(self, capsys, monkeypatch, word):
        def never(word):
            raise AssertionError("closure built for a word over the cap")

        monkeypatch.setattr("cuspbounds.pipeline.braid_closure", never)
        assert main(["braid", word]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[TooManyCrossings]: ")

    def test_pretzel_subcommand(self, capsys):
        assert main(["pretzel", "3,5,7", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["meridian"]["rule"] == "pretzel"

    def test_surgery_subcommand(self, capsys):
        assert main(["surgery", "--delta", "0", "--slopes", "1/5,1/6", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [v["nonExceptional"] for v in report["slopes"]] == [False, True]

    @pytest.mark.parametrize("argv", [
        ["surgery", "--delta", "0", "--volume", "0", "--slopes", "1/7,1/5"],
        ["surgery", "--crossings", "7", "--genus", "2", "--volume", "2", "--slopes", "1/5,1/8"],
        ["analyze", "--pair", "4,3,5", "--volume", "4", "--slopes", "1/16,-1/17,2/4"],
        ["analyze", FIG8, "--volume", "2.03", "--slopes", "1/1,1/5"],
    ])
    def test_text_names_each_window_error(self, capsys, argv):
        # each slope line ends with its entry's window error, as JSON gives it
        assert main([*argv, "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)["slopes"]
        assert main(argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "  slope " in line]
        assert len(lines) == len(entries)
        assert any("windowError" in entry for entry in entries)
        for line, entry in zip(lines, entries):
            if "windowError" in entry:
                assert line.endswith(f" window error {entry['windowError']['message']}")
            else:
                assert "window error" not in line

    def test_text_shows_each_boundary_hit(self, capsys):
        # |q| = 2M puts the window's lower end at 0, which JSON flags as boundaryHit
        argv = ["surgery", "--delta", "0", "--volume", "2", "--slopes", "1/5,1/6,1/7,-1/6"]
        assert main([*argv, "--format", "json"]) == 0
        hits = ["boundaryHit" in entry for entry in json.loads(capsys.readouterr().out)["slopes"]]
        assert main(argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "  slope " in line]
        assert [line.endswith(" boundaryHit=True") for line in lines] == hits
        assert hits == [False, True, False, True]

    def test_surgery_montesinos(self, capsys):
        assert main(["surgery", "--montesinos", "10", "--slopes", "1/7", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slopes"][0]["volumeWindow"]["lower"] == pytest.approx(0.125169947268)

    def test_batch_subcommand(self, capsys, tmp_path):
        assert main(["batch", os.fspath(DATA), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"] == {"pass": 5, "fail": 0, "skip": 0}
        bad = tmp_path / "bad.csv"
        bad.write_text(f'name,pd,reference_meridian\nx,"{FIG8}",5.0\n')
        assert main(["batch", os.fspath(bad)]) == 1
        capsys.readouterr()

    def test_surgery_zero_crossings_exits_one(self, capsys):
        assert main(["surgery", "--crossings", "0", "--genus", "0", "--slopes", "1/5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[BadDiagramCounts]:")

    @pytest.mark.parametrize(
        "source, delta",
        [
            (["--delta=-5"], "-5"),
            (["--delta=-1"], "-1"),
            (["--crossings", "1", "--genus", "0"], "-2"),
            (["--crossings", "2", "--genus", "0"], "-1"),
        ],
    )
    def test_surgery_refuses_one_plus_delta_not_positive(self, capsys, source, delta):
        assert main(["surgery", *source, "--slopes", "1/1,1/2", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[DeltaOutOfRange]: the slope bounds need 1 + delta > 0, got delta = {delta}\n"
        )

    def test_delta_is_checked_before_any_slope(self):
        # every slope is an error entry here, so no slope filter ever runs
        for meridian in (0, Fraction(-3, 7)):
            with pytest.raises(DeltaOutOfRange):
                run_surgery(parse_slope_list("1/0,2/4"), meridian)

    def test_counts_are_checked_before_delta(self, capsys):
        # each of these also has 3c + 6g - 6 <= 0, which DeltaOutOfRange would name
        for c, g in (("0", "0"), ("-3", "1"), ("5", "-1")):
            argv = ["surgery", "--crossings", c, "--genus", g, "--slopes", "1/0,1/5"]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error[BadDiagramCounts]: need c >= 1 and g >= 0, got c={c}, g={g}\n")

    @pytest.mark.parametrize("source", [["--delta", "0"], ["--montesinos", "10"]])
    def test_genus_needs_crossings(self, capsys, source):
        with pytest.raises(SystemExit) as excinfo:
            main(["surgery", *source, "--genus", "3", "--slopes", "1/7"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cuspbounds surgery ")
        assert captured.err.endswith("cuspbounds surgery: error: --genus needs --crossings\n")

    @pytest.mark.parametrize("slopes, message", [
        ([], "surgery needs --slopes"),
        (["--slopes", ","], "--slopes lists no slope"),
        (["--slopes", " , "], "--slopes lists no slope"),
        (["--slopes="], "--slopes lists no slope"),
    ])
    def test_surgery_needs_a_slope(self, capsys, slopes, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["surgery", "--delta", "0", *slopes])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: cuspbounds surgery ")
        assert captured.err.endswith(f"cuspbounds surgery: error: {message}\n")

    @pytest.mark.parametrize("command", [
        ["analyze", "--pair", "11,1,24"], ["braid", "3: s1^1 s2^-1 s1^1 s2^-1"], ["pretzel", "3,5,7"]])
    @pytest.mark.parametrize("slopes", [["--slopes", ","], ["--slopes", " , "], ["--slopes="]])
    def test_slopes_that_list_no_slope_are_refused(self, capsys, command, slopes):
        # as surgery refuses them; with no --slopes at all the report has no sweep
        with pytest.raises(SystemExit) as excinfo:
            main([*command, *slopes])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: cuspbounds {command[0]} ")
        assert captured.err.endswith(f"cuspbounds {command[0]}: error: --slopes lists no slope\n")
        assert main([*command, "--format", "json"]) == 0
        assert strict_json(capsys.readouterr().out)["slopes"] is None

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_analyze_sweep_is_the_counts_sweep(self, seed):
        # a diagram's slope entries are those of `surgery` with its own (c, gT)
        diagram = random_adequate_knot_diagram(random.Random(seed))
        options = ["--volume", "7.5", "--format", "json",
                   "--slopes=1/0,2/4,1/1,-3/5,7/6,1/7,5/-12,1/13,2/25,1/1000003"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["analyze", diagram.pd_string(), *options])
        report = strict_json(out.getvalue())
        if code == 2:  # torus-degenerate: no slope analysis
            assert report["slopes"] is None
            return
        c, g = report["invariants"]["c"], report["invariants"]["gT"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["surgery", "--crossings", str(c), "--genus", str(g), *options]) == 0
        assert report["slopes"] == strict_json(out.getvalue())["slopes"]

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # like `cuspbounds surgery ... --format json | head -1`: the reader
        # goes away long before the output (hundreds of kB) is written
        slopes = ",".join(f"1/{q}" for q in range(1, 2001))
        err_path = tmp_path / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cuspbounds.cli", "surgery", "--delta=0",
                 "--slopes", slopes, "--format", "json"],
                stdout=subprocess.PIPE,
                stderr=err,
                env={**os.environ, "PYTHONPATH": os.fspath(SRC)},
            )
            try:
                assert proc.stdout.readline() == b"{\n"
                proc.stdout.close()
                assert proc.wait(timeout=60) == 1
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=60)
        assert err_path.read_bytes() == b""

    @pytest.mark.parametrize("argv", [["surgery", "--crossings", "10", "--genus", "1"],
                                      ["analyze", FIG8, "--volume", "2.029883212819"]])
    def test_huge_q_is_a_coded_entry(self, capsys, argv):
        huge = "1" + "0" * 400
        assert main(argv + [f"--slopes=1/{huge},1/7", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "Infinity" not in captured.out
        entries = strict_json(captured.out)["slopes"]
        error = {"code": "InvalidSlope", "message": HUGE_Q}
        assert entries[0] == {"p": 1, "q": int(huge), "error": error}
        assert entries[1]["nonExceptional"] is True
        assert main(argv + [f"--slopes=1/{huge}"]) == 0
        assert f"slope 1/{huge}: error {HUGE_Q}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", f"X[{'9' * 5000},1,2,3]"], "MalformedToken"),
            (["braid", f"2: s1^{'9' * 5000}"], "TooManyCrossings"),
            (["braid", f"2: s{'9' * 5000}^3"], "BadGeneratorIndex"),
        ],
    )
    def test_numbers_past_the_int_digit_limit_are_coded(self, capsys, argv, code):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error[{code}]:")

    @pytest.mark.parametrize(
        "budget", ["1e400", "-1e400", "1e999999999", "1e-999999999", "1/0", "9" * 400 + "/1"]
    )
    def test_budget_needs_a_finite_float(self, capsys, budget):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--pair", "1,1,2", f"--budget={budget}"])
        assert excinfo.value.code == 1
        assert "argument --budget: not a number with a finite float" in capsys.readouterr().err

    @pytest.mark.parametrize("text, value", [("1 / 3", Fraction(1, 3)), ("1/ 3", Fraction(1, 3)),
                                             (" 7 /2 ", Fraction(7, 2)), ("1 / 0", None),
                                             ("1 / 3 / 4", None), ("\u0660", Fraction(0)),
                                             ("\u0660.\u0660", Fraction(0)), ("-\u0660", Fraction(0)),
                                             ("\u0660e5", Fraction(0)), ("\u0663", Fraction(3))])
    def test_number_options_read_spaces_around_the_slash_and_every_zero(self, capsys, text, value):
        # Fraction() reads "1 / 3" only from Python 3.12 on; the CLI reads it on
        # every supported version, as --slopes reads "-1 / 3". Arabic-Indic
        # \u0660 is zero, as str.isdecimal and int() read it. --volume reads the
        # exact number and rounds it to a float once: 7/2 prints what 3.5 prints.
        sweep = ["--slopes", "1/7,1/30", "--format", "json"]
        for argv, option in ((["analyze", "--pair", "4,3,5", "--format", "json"], "--budget"),
                             (["surgery", *sweep], "--delta"),
                             (["surgery", "--delta", "0", *sweep], "--volume")):
            if value is None:
                with pytest.raises(SystemExit) as excinfo:
                    main([*argv, f"{option}={text}"])
                assert excinfo.value.code == 1
                assert capsys.readouterr().err.endswith(
                    f"argument {option}: not a number with a finite float: {text!r}\n")
                continue
            spellings = [text, str(value)] + [repr(float(value))] * (option == "--volume")
            outputs = [(main([*argv, f"{option}={spelled}"]), capsys.readouterr())
                       for spelled in spellings]
            assert all(output == outputs[0] for output in outputs)
            code, captured = outputs[0]
            if option == "--budget" and value == 0:
                assert (code, captured.out) == (1, "")
                assert captured.err.startswith("error[NonPositiveBudget]:")
            elif option == "--budget":
                assert json.loads(captured.out)["criterion"]["budget"] == float(value)
            else:
                assert code == 0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    def test_volume_window_ends_at_the_volume_as_typed(self, volume):
        # --volume is read exactly and rounded once, so repr() of a float reads back as it
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["surgery", "--delta", "0", f"--volume={volume!r}", "--slopes", "1/13",
                         "--format", "json"])
        assert code == 0
        [entry] = json.loads(out.getvalue())["slopes"]
        assert entry["volumeWindow"]["upper"] == float(f"{volume:.12g}")

    def test_zero_budget_with_a_huge_exponent_is_read_as_a_float(self, capsys):
        # Fraction("0e-999999999") would build 10 ** 999999999 first
        assert main(["analyze", "--pair", "1,1,2", "--budget", "0e-999999999"]) == 1
        assert capsys.readouterr().err.startswith("error[NonPositiveBudget]:")

    def test_unknown_option_shows_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pretzel", "3,5,7", "--prime"])
        assert excinfo.value.code == 1
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: cuspbounds pretzel [-h] [--budget BUDGET]")
        assert error == "cuspbounds pretzel: error: unrecognized arguments: --prime"

    @pytest.mark.parametrize(
        "extra, error",
        [(["--x=" + "9" * 5000], "unrecognized arguments: --x=9999999999999999"),
         (["a", "b", "c", "d", "e", "f", "g"], "unrecognized arguments: a b c d e and 2 more"),
         (["--format=" + "a" * 5000],
          "argument --format: invalid choice: 'aaaaaaaaaaaaaaaaaaaa' (choose from"),
         (["--format=it's" * 100], "argument --format: invalid choice: \"it's--format=it's--f\"")],
    )
    def test_argparse_echoes_are_cut(self, capsys, extra, error):
        with pytest.raises(SystemExit) as excinfo:
            main(["pretzel", "3,5,7", *extra])
        assert excinfo.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith(f"cuspbounds pretzel: error: {error}")
        assert max(map(len, lines)) <= 120  # each echo is cut, the usage line included

    @pytest.mark.parametrize(
        "argv, where",
        [(["pretzel", "3,5"], "pretzel: error: argument params"),
         (["pretzel", "3,x,5"], "pretzel: error: argument params"),
         (["analyze", "--pair", "1,2"], "analyze: error: argument --pair")],
    )
    def test_triple_usage_error_names_no_private_function(self, capsys, argv, where):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == f"cuspbounds {where}: expected three integers, got {argv[-1]!r}"

    @pytest.mark.parametrize("argv", [["pretzel", "3_5,5,7"], ["pretzel", "+3,5,7"],
                                      ["analyze", "--pair", "1_1,1,24"]])
    def test_triple_parts_are_decimal_digits(self, capsys, argv):
        # int() alone reads "3_5" as 35 and "+3" as 3
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.endswith(f": expected three integers, got {argv[-1]!r}\n")

    def test_slopes_are_decimal_digits(self):
        # int() alone reads "1_0" as 10 and "+1" as 1; the entry names the part
        # that read_int refused, as int() names a part it refuses
        entries = parse_slope_list("1_0/3,+1/3,1/+3,1/3_0, -1 / 3 ,\u0663/7,+2/4," + "1" * 30 + "_/3")
        for entry, part, number in zip(entries, ["1_0/3", "+1/3", "1/+3", "1/3_0"],
                                       ["1_0", "+1", "+3", "3_0"]):
            message = f"invalid literal for int() with base 10: {number!r}"
            assert entry == {"slope": part, "error": {"code": "InvalidSlope", "message": message}}
        assert entries[4:6] == (Slope(-1, 3), Slope(3, 7))
        # the digits are checked before the slope
        assert entries[6]["error"]["message"] == "invalid literal for int() with base 10: '+2'"
        # the refused part is echoed cut to 20 characters
        assert entries[7]["error"]["message"] == f"invalid literal for int() with base 10: {'1' * 20!r}"

    def test_any_unicode_decimal_digit_is_read(self, capsys):
        # "Decimal digits" are those str.isdecimal and int() accept: Arabic-Indic
        # \u0661\u0660 is 10 and \u0663 is 3, in integers, braid words and slopes
        ten, one, three, seven = "\u0661\u0660", "\u0661", "\u0663", "\u0667"
        assert read_int(ten) == 10 and read_int(f" -{three} ") == -3
        assert parse_braid(f"{three}: s{one}^{three} s2^-{three}") == parse_braid("3: s1^3 s2^-3")
        assert parse_slope_list(f"{one}/{seven},{three}") == (Slope(1, 7), Slope(3, 1))
        outputs = []
        for t, slopes in ((ten, f"{one}/{seven}"), ("10", "1/7")):
            assert main(["surgery", "--montesinos", t, "--slopes", slopes, "--format", "json"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["surgery", "--montesinos", "1_0", "--slopes", "1/7"],
            ["surgery", "--crossings", "+1_0", "--genus", "1", "--slopes", "1/7"],
            ["surgery", "--crossings", "10", "--genus", "1_0", "--slopes", "1/7"],
            ["surgery", "--crossings", "0", "--genus", "9" * 1001, "--slopes", "1/7"],
            ["surgery", "--montesinos", "9" * 5000, "--slopes", "1/7"],
            ["analyze", "--pair", "1,1," + "9" * 5000],
            ["analyze", "--pair", "1,1,2", "--budget=-1e300"],
            ["surgery", "--delta=-1e300", "--slopes", "1/7"],
            # float() and Fraction() alone read "1_0" as 10 and "+2" as 2
            ["surgery", "--delta", "0", "--slopes", "1/7", "--volume=1_0"],
            ["analyze", "--pair", "4,3,5", "--budget=+2"],
            ["surgery", "--delta=1_0/3", "--slopes", "1/7"],
        ],
        ids=["montesinos-1_0", "crossings-+1_0", "genus-1_0", "genus-1001-digits",
             "montesinos-5000-digits", "pair-5000-digits", "budget", "delta",
             "volume-1_0", "budget-+2", "delta-1_0/3"],
    )
    def test_number_options_are_decimal_digits_and_echoes_are_cut(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error, after the usage line
            code = exc.code
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()[-1]) <= 100

    def test_long_slope_is_cut_in_its_entry(self):
        [entry] = parse_slope_list("2" + "0" * 400 + "/4")
        message = "slope 20000000000000000000/4 is not in lowest terms"
        assert entry["error"] == {"code": "InvalidSlope", "message": message}

    def test_labels_used_once_give_a_short_error_line(self, capsys):
        pd = " ".join(f"X[{4 * i + 1},{4 * i + 2},{4 * i + 3},{4 * i + 4}]" for i in range(2000))
        assert main(["analyze", pd]) == 1
        error = "edge labels not used exactly twice: [1, 2, 3, 4, 5] and 7995 more"
        assert capsys.readouterr() == ("", f"error[EdgeLabelUsedOtherThanTwice]: {error}\n")

    @pytest.mark.parametrize("digits", [309, 400])
    def test_montesinos_window_past_a_float_is_a_coded_entry(self, capsys, digits):
        t = "1" + "0" * (digits - 1)
        error = {"code": "NonFiniteVolume",
                 "message": f"the window's upper end 2 v8 t overflows a float at t = {t[:20]}"}
        assert main(["surgery", "--montesinos", t, "--slopes", "1/7,1/3", "--format", "json"]) == 0
        entries = strict_json(capsys.readouterr().out)["slopes"]
        assert [entry["error"] for entry in entries] == [error, error]
        assert main(["surgery", "--montesinos", t, "--slopes", "1/7"]) == 0
        assert capsys.readouterr().out == f"status: ok\n  slope 1/7: error {error['message']}\n"
        # 2 v8 t is finite at t = 10^307
        t = "1" + "0" * 307
        assert main(["surgery", "--montesinos", t, "--slopes", "1/7", "--format", "json"]) == 0
        window = strict_json(capsys.readouterr().out)["slopes"][0]["volumeWindow"]
        assert window["upper"] == 7.32772475342e307

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--pair", "1" + "0" * 200 + ",1,1"],
             "pair 10000000000000000000,1,1: a general bound has no finite, non-zero float"),
            (["analyze", "--pair", "1,1," + "1" + "0" * 400],
             "pair 1,1,10000000000000000000: a general bound has no finite, non-zero float"),
            (["pretzel", "3," + "1" * 400 + ",3"],
             "pretzel 3,11111111111111111111,3: a pretzel bound has no finite, non-zero float"),
        ],
    )
    def test_surface_bounds_past_a_float_are_coded(self, capsys, argv, message):
        # too large for a float, or a meridian bound 12 / i that rounds to 0
        for fmt in ("json", "text"):
            assert main(argv + ["--format", fmt]) == 1
            assert capsys.readouterr() == ("", f"error[BoundOutOfRange]: {message}\n")

    def test_long_pretzel_parameter_is_cut(self, capsys):
        assert main(["pretzel", "3," + "2" * 400 + ",3"]) == 1
        assert capsys.readouterr().err == (
            f"error[NotOddOrTooSmall]: pretzel parameters must be odd and > 1: {'2' * 20}\n")

    @pytest.mark.parametrize(
        "argv, text",
        [(["analyze"], FIG8), (["braid"], "3: s1^3 s2^3 s1^3 s2^3"), (["analyze"], "X[1,2"),
         # the PD text of weaving_braid(k), 2k crossings: past the 128 KiB that
         # Linux allows a single argument, and at diagram.MAX_CROSSINGS, 100,000
         (["analyze"], 3500), (["analyze"], 50_000)],
        ids=["pd", "braid", "bad-pd", "pd-past-128KiB", "pd-at-the-cap"],
    )
    def test_dash_reads_the_diagram_from_stdin(self, capsys, monkeypatch, argv, text):
        if isinstance(text, int):  # built here: a word past the cap fails this test alone
            text = closure_pd_text(weaving_braid(text))
        options = ["--format", "json", "--slopes", "1/7"]
        code = main(argv + [text] + options)
        expected = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(f"\n {text}\n"))
        assert main(argv + ["-"] + options) == code
        assert capsys.readouterr() == expected
        if len(text) > 128 * 1024:
            assert code == 0 and strict_json(expected.out)["invariants"]["c"] == text.count("X")

    def test_unreadable_stdin_is_coded(self, capsys, monkeypatch):
        class Unreadable:
            def read(self):
                raise IsADirectoryError(21, "Is a directory")

        not_utf8 = io.TextIOWrapper(io.BytesIO(b"X[\xff"), encoding="utf-8")
        for stdin, reason in [
            (None, "it is closed"),
            (Unreadable(), "[Errno 21] Is a directory"),
            (not_utf8, "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
        ]:
            monkeypatch.setattr("sys.stdin", stdin)
            assert main(["analyze", "-"]) == 1
            error = f"error[FileUnreadable]: cannot read standard input: {reason}\n"
            assert capsys.readouterr() == ("", error)
        # a PD code and --pair together are refused before stdin is read
        with pytest.raises(SystemExit):
            main(["analyze", "-", "--pair", "1,1,2"])
        capsys.readouterr()

    def test_usage_errors_exit_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["surgery", "--delta", "0"])  # missing --slopes
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])  # no source at all
        assert excinfo.value.code == 1
        capsys.readouterr()
