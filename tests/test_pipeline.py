"""End-to-end pipelines, JSON round trips, batch cross-checks, CLI."""

import csv
import json
import math
import os
import random
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
    run_analyze,
    run_batch,
    run_surgery,
)
from cuspbounds.cli import main
from cuspbounds.errors import (
    BadDiagramCounts,
    BudgetOutOfRange,
    DeltaOutOfRange,
    FileUnreadable,
    MissingHeader,
    NonFiniteVolume,
    NonPositiveBudget,
    NoSlopeSource,
    NotOneInputSource,
)
from cuspbounds.pipeline import parse_slope_list
from cuspbounds.surgery import surgery_volume_window
from genutil import (
    fraction_montesinos_entries,
    fraction_slope_entries,
    random_adequate_knot_diagram,
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
        report = run_analyze(AnalysisRequest(braid="4: s1^3 s2^3 s3^3", prime_asserted=True))
        assert report["braidVerdict"] == "MeridianUnderFour"
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
        verdicts = run_surgery(parse_slope_list("1/5,1/6,1/7,1/8"), delta=Fraction(0))
        assert [v["nonExceptional"] for v in verdicts] == [False, True, True, True]

    def test_counts_mode_has_length_floor(self):
        verdicts = run_surgery(parse_slope_list("1/6"), c=10, g_t=1)
        assert verdicts[0]["lengthLower"] == pytest.approx(6.7)

    def test_montesinos_mode(self):
        verdicts = run_surgery(parse_slope_list("1/7,1/5"), montesinos_t=10)
        assert verdicts[0]["volumeWindow"]["upper"] == pytest.approx(73.2772475342)
        assert verdicts[1]["error"]["code"] == "SlopeTooSmall"

    def test_invalid_slope_entries_pass_through(self):
        verdicts = run_surgery(parse_slope_list("1/0,2/4,1/6"), delta=Fraction(0))
        assert verdicts[0]["error"]["code"] == "InvalidSlope"
        assert verdicts[1]["error"]["code"] == "InvalidSlope"
        assert verdicts[2]["nonExceptional"] is True

    def test_needs_a_delta_source(self):
        with pytest.raises(ValueError):
            run_surgery((Slope(1, 6),))

    def test_missing_source_is_coded(self):
        for kwargs in ({}, {"c": 10}, {"g_t": 1}):
            with pytest.raises(NoSlopeSource):
                run_surgery((Slope(1, 6),), **kwargs)

    def test_explicit_delta_takes_precedence_over_counts(self):
        verdicts = run_surgery(parse_slope_list("1/6"), delta=Fraction(1, 2), c=10, g_t=1)
        assert verdicts[0]["nonExceptional"] is False  # 6 < (360/67)(3/2)
        assert verdicts[0]["lengthLower"] is None


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


class TestSweepsAgainstFractionOracle:
    """``run_surgery`` and the analyze slope list against the ``Fraction``
    oracles of ``genutil``, entry for entry and float for float."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), slopes=st.lists(SLOPE_ITEMS, max_size=12), volume=VOLUMES)
    def test_delta_sweep(self, data, slopes, volume):
        delta = data.draw(deltas_for(slopes))
        expected = fraction_slope_entries(slopes, delta=delta, volume=volume)
        assert run_surgery(tuple(slopes), delta=delta, volume=volume) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.tuples(st.integers(1, 80), st.integers(0, 12)).filter(
            lambda cg: cg[0] + 2 * cg[1] > 2  # 1 + delta = (c + 2g - 2)/c > 0
        ),
        slopes=st.lists(SLOPE_ITEMS, max_size=12),
        volume=VOLUMES,
    )
    def test_counts_sweep(self, counts, slopes, volume):
        c, g = counts
        expected = fraction_slope_entries(slopes, volume=volume, c=c, g=g)
        assert run_surgery(tuple(slopes), c=c, g_t=g, volume=volume) == expected

    @settings(max_examples=200, deadline=None)
    @given(t=st.integers(-2, 40), slopes=st.lists(SLOPE_ITEMS, max_size=12))
    def test_montesinos_sweep(self, t, slopes):
        expected = fraction_montesinos_entries(slopes, t)
        assert run_surgery(tuple(slopes), montesinos_t=t) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        slopes=st.lists(SLOPE_ITEMS, min_size=1, max_size=12),
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
            assert "not a finite number" in captured.err

    def test_non_finite_references_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(
            "name,pd,reference_meridian,reference_volume\n"
            f'good,"{FIG8}",1.0,2.0\n'
            f'nan_meridian,"{FIG8}",nan,\n'
            f'inf_meridian,"{FIG8}",inf,\n'
            f'nan_volume,"{FIG8}",1.0,nan\n'
            f'inf_volume,"{FIG8}",1.0,inf\n'
        )
        rows = run_batch(os.fspath(path)).rows
        notes = {row["name"]: (row["status"], row["note"]) for row in rows}
        assert notes == {
            "good": ("pass", ""),
            "nan_meridian": ("skip", "bad reference_meridian value"),
            "inf_meridian": ("skip", "bad reference_meridian value"),
            "nan_volume": ("skip", "bad reference_volume value"),
            "inf_volume": ("skip", "bad reference_volume value"),
        }
        assert main(["batch", os.fspath(path), "--format", "json"]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["summary"] == {"pass": 1, "fail": 0, "skip": 4}

    def test_every_json_output_is_strict_json(self, capsys):
        for argv in (
            ["analyze", FIG8, "--slopes", "1/5,1/6,1/7", "--volume", "2.029883212819"],
            ["analyze", TREFOIL],
            ["analyze", "--pair", "11,1,24", "--budget", "4"],
            ["braid", "4: s1^3 s2^3 s3^3", "--prime", "--slopes", "1/9", "--volume", "9.5"],
            ["pretzel", "3,5,7", "--budget", "3"],
            ["surgery", "--delta", "0", "--slopes", "1/5,1/6,x", "--volume", "5.5"],
            ["surgery", "--crossings", "10", "--genus", "1", "--slopes", "1/6"],
            ["surgery", "--montesinos", "10", "--slopes", "1/7,1/3"],
            ["batch", os.fspath(DATA)],
        ):
            assert main(argv + ["--format", "json"]) in (0, 2)
            strict_json(capsys.readouterr().out)


class TestRunBatch:
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
        assert main(["analyze", FIG8]) == 0
        assert main(["analyze", TREFOIL]) == 2
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
        assert main(["braid", "4: s1^3 s2^3 s3^3", "--prime", "--format", "json"]) == 0
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
        with pytest.raises(DeltaOutOfRange):
            run_surgery(parse_slope_list("1/0,2/4"), delta=Fraction(-1))

    def test_counts_are_checked_before_delta(self):
        for c, g in ((0, 0), (-3, 1), (5, -1)):
            with pytest.raises(BadDiagramCounts):
                run_surgery(parse_slope_list("1/5"), c=c, g_t=g)

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

    def test_usage_errors_exit_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["surgery", "--delta", "0"])  # missing --slopes
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])  # no source at all
        assert excinfo.value.code == 1
        capsys.readouterr()
