"""Fuzzing the CLI in process with mutated inputs of every kind.

Whatever the input, ``cli.main`` returns 0, 1 or 2, or argparse exits with
status 1 for a usage mistake; nothing else escapes. Every ``error[...]``
line names a ``CuspBoundsError`` subclass, and every JSON report is strict
JSON, without NaN or Infinity. Echoed input is cut, argparse's echo of an
unknown argument or a refused choice included, so every stderr line stays
within 250 characters and every JSON ``message`` within 200. The CLI's JSON
writer writes what ``json.dumps(value, indent=2, sort_keys=True,
allow_nan=False)`` does, and refuses any other value before it writes
anything.
"""

import contextlib
import csv
import io
import json
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cuspbounds import errors
from cuspbounds.bounds import Sqrt
from cuspbounds.cli import _emit, main

CODES = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.CuspBoundsError)
}
NINES = "9" * 5000  # past the 4,300 digits that int() converts
PDS = [
    "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
    "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]",
    "X[1,1,2,2]",
    "(1,2,3,4), (2,5,6,3), (5,1,4,6)",
]
BRAIDS = ["3: s1^3 s2^-3", "3: s1^3 s2^3 s1^3 s2^3", "2: s1^3", "4: s1^3 s2^3 s3^3", "3: s1^2 s2^-1"]
NUMBERS = st.one_of(
    st.integers(-12, 40).map(str),
    # "9" * 400: past a float's range, and still converted by int()
    # "+1" and "1_0": int() reads them, the CLI does not
    st.sampled_from(["0", "", "-", "1.5", "1e400", "nan", "inf", str(10**12), "9" * 400,
                     NINES, "+1", "1_0"]),
)
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def mutated(draw, bases, alphabet):
    """A base text with a few characters or numbers inserted, deleted or replaced."""
    text = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.one_of(st.sampled_from(alphabet), NUMBERS))
        cut = draw(st.integers(0, 2))
        text = text[:i] + piece + text[i + cut:]
    return text


SLOPES = st.lists(
    st.one_of(st.tuples(NUMBERS, NUMBERS).map("/".join), NUMBERS), max_size=6
).map(",".join)
BUDGETS = st.one_of(
    NUMBERS,
    st.sampled_from(["7/2", "1/0", "-3/4", "abc", NINES + "/1"]),
    st.builds(
        "{}e{}".format,
        st.sampled_from(["0", "1", "-1", "2.5", "0.0", ".5"]),
        st.one_of(st.integers(-400, 400), st.sampled_from([-999999999, 999999999])),
    ),
)
# Mostly a valid format; otherwise a choice that argparse refuses and echoes.
FORMATS = st.sampled_from(["json", "text"] * 3 + ["JSON", "a" * 5000, NINES, "it's" * 1000])
# Arguments that no subcommand takes, echoed as refused.
UNKNOWN = st.one_of(
    st.builds("--x={}".format, NUMBERS),
    st.sampled_from(["--prime", "-q", "--" + "z" * 5000, "y" * 5000, "'" + "b" * 300 + "'"]),
)


def options(draw, names) -> list[str]:
    argv = []
    for name in names:
        if draw(st.booleans()):
            value = draw(BUDGETS if name in ("--budget", "--delta") else
                         SLOPES if name == "--slopes" else NUMBERS)
            argv.append(f"{name}={value}")
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.lists(UNKNOWN, min_size=1, max_size=7))
    return argv


@st.composite
def diagram_calls(draw):
    kind = draw(st.sampled_from(["analyze", "braid", "pretzel", "pair"]))
    if kind == "analyze":
        argv = ["analyze", draw(mutated(PDS, "X[](),- 0123456789"))]
    elif kind == "braid":
        argv = ["braid", draw(mutated(BRAIDS, ":s^- 0123456789"))]
    else:
        triple = ",".join(draw(st.lists(NUMBERS, min_size=2, max_size=4)))
        argv = ["pretzel", triple] if kind == "pretzel" else ["analyze", "--pair", triple]
    return argv + options(draw, ["--budget", "--slopes", "--volume"])


@st.composite
def surgery_calls(draw):
    source = draw(st.sampled_from(["--delta", "--crossings", "--montesinos"]))
    argv = ["surgery", f"{source}={draw(BUDGETS if source == '--delta' else NUMBERS)}"]
    if source == "--crossings":
        argv.append(f"--genus={draw(NUMBERS)}")
    return argv + [f"--slopes={draw(SLOPES)}"] + options(draw, ["--volume"])


ROWS = st.lists(
    st.tuples(
        st.text("abc _", max_size=4),
        mutated(PDS, "X[](),- 0123456789"),
        NUMBERS,
        st.one_of(st.just(""), NUMBERS),
    ),
    max_size=5,
)


def messages(value):
    """Every ``message`` string in a JSON report."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from [item] if key == "message" else messages(item)
    elif isinstance(value, list):
        for item in value:
            yield from messages(item)


def run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 1, argv
            code = 1
    assert code in (0, 1, 2), argv
    for line in err.getvalue().splitlines():
        assert len(line) <= 250, line[:300]
        if line.startswith("error["):
            assert line[len("error["):line.index("]")] in CODES, line
    if "json" in argv and out.getvalue():

        def reject(constant):
            raise AssertionError(f"non-finite number {constant} in JSON output")

        for message in messages(json.loads(out.getvalue(), parse_constant=reject)):
            assert len(message) <= 200, message[:300]


@SETTINGS
@given(argv=diagram_calls(), fmt=FORMATS)
def test_diagram_commands(argv, fmt):
    run(argv + ["--format", fmt])


@SETTINGS
@given(argv=surgery_calls(), fmt=FORMATS)
def test_surgery_command(argv, fmt):
    run(argv + ["--format", fmt])


@SETTINGS
@given(rows=ROWS, header=st.booleans(), fmt=FORMATS)
def test_batch_command(tmp_path, rows, header, fmt):
    path = tmp_path / "rows.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "pd", "reference_meridian", "reference_volume"][: 4 if header else 2])
        writer.writerows(rows)
    run(["batch", str(path), "--format", fmt])


STRINGS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),  # with lone surrogates
    st.sampled_from(["", "\udcff", "\ud835\udd38", "\t\n\x00\x1f\x7f", "\u00e9\u2212", '"\\/']),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-1, -(10**4000), 2**64, 10**300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]),
    STRINGS,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=25,
)
REPORTS = st.lists(JSON_VALUES, max_size=4) | st.dictionaries(STRINGS, JSON_VALUES, max_size=4)


# The writer lays out each key set once per report and depth; these reports
# repeat a few key sets in shuffled insertion orders, nested at two depths.
KEY_SETS = [("p", "q", "rule", "volumeWindow"), ("lower", "upper"), ("code", "message"),
            ("", "\u00e9", "a", "\ud835\udd38")]


@st.composite
def laid_out(draw, depth: int = 2):
    keys = draw(st.permutations(draw(st.sampled_from(KEY_SETS))))
    if depth == 0:
        return {key: draw(SCALARS) for key in keys}
    inner = laid_out(depth - 1)
    values = st.one_of(SCALARS, inner, st.lists(inner, max_size=3))
    return {key: draw(values) for key in keys}


class NotIterated(dict):
    def __iter__(self):
        raise AssertionError("the writer iterated an unknown type")


REFUSED = [
    (float("nan"), ValueError),
    (float("inf"), ValueError),
    (float("-inf"), ValueError),
    ((1, 2), TypeError),
    (Fraction(1, 3), TypeError),
    (Sqrt(2), TypeError),
    ({1: "one"}, TypeError),
    (NotIterated(a=1), TypeError),
]


@settings(max_examples=300, deadline=None)
@given(value=REPORTS)
def test_json_writer_matches_json_dumps(value):
    out = io.StringIO()
    _emit(value, "json", out)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(value=st.lists(laid_out(), max_size=8))
def test_json_writer_reuses_key_layouts(value):
    out = io.StringIO()
    _emit(value, "json", out)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad, error", REFUSED)
@settings(max_examples=20, deadline=None)
@given(value=JSON_VALUES)
def test_json_writer_refuses_before_writing(bad, error, value):
    for report in ([bad], [value, bad], {"a": value, "b": {"c": bad}}, {"a": [value, [bad]]},
                   [{"a": 1}, {"a": bad}], [{"a": {"a": value}}, {"a": {"a": [bad]}}]):
        out = io.StringIO()
        with pytest.raises(error):
            _emit(report, "json", out)
        assert out.getvalue() == ""


@pytest.mark.parametrize(
    "report",
    [
        [{"a": 1}, {1: "x"}],
        [{"a": 1}, {"a": 1, 2: "x"}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"b": 2, "a": {("a",): 1}}],
        {"a": {"a": 1}, "b": [{"a": 2}, {None: 3}]},
    ],
)
def test_json_writer_refuses_non_str_keys_after_a_stored_layout(report):
    out = io.StringIO()
    with pytest.raises(TypeError):
        _emit(report, "json", out)
    assert out.getvalue() == ""


# The reports above hold at most a few dozen values. A slope sweep holds up to
# thousands of entries in a few key orders, with one float or str object
# repeated down a column; these long reports reach what the short ones do not.
def sweep_shaped(n: int) -> list:
    """Slope entries in five key orders, two of them with one key set, that
    share 40 length floats, one window bound and one rule str."""
    lengths, upper, rule = [q / 7 for q in range(40)], 17.25, "surgery_window"
    entries = []
    for i in range(n):
        p, q, shape = i - n // 2, 1 + i % 40, i % 5
        if shape == 4:
            entries.append({"p": p, "q": q, "error": {"code": "InvalidSlope", "message": "refused"}})
            continue
        tail = {"lengthLower": lengths[q] if q % 3 else None, "nonExceptional": q > 20,
                "twoPiExceeded": q > 10, "volumeWindow": {"lower": lengths[q], "upper": upper},
                "rule": rule}
        if shape == 1:
            tail["boundaryHit"] = True
        elif shape == 2:
            tail["volumeWindow"], tail["windowError"] = None, {"code": "W", "message": "window"}
        elif shape == 3:
            tail = dict(reversed(tail.items()))
        entries.append({"p": p, "q": q, **tail})
    return entries


def one_key_set(n: int) -> list:
    """Slope entries with one key set written in four key orders: p and q
    first, p and q set last on a copy of the tail, reversed, and p last; the
    window dicts also come in two orders."""
    entries = []
    for i in range(n):
        p, q, shape = i - n // 2, 1 + i % 40, i % 4
        window = {"lower": q / 7, "upper": 17.25} if i % 3 else {"upper": 17.25, "lower": q / 7}
        tail = {"lengthLower": q / 7 if q % 3 else None, "nonExceptional": q > 20,
                "twoPiExceeded": q > 10, "volumeWindow": window, "rule": "surgery_window"}
        if shape == 0:
            entry = {"p": p, "q": q, **tail}
        elif shape == 1:
            entry = tail.copy()
            entry["p"], entry["q"] = p, q
        elif shape == 2:
            entry = dict(reversed({"p": p, "q": q, **tail}.items()))
        else:
            entry = {"q": q, **tail, "p": p}
        entries.append(entry)
    return entries


SHARED_FLOATS = [0.1, 1e16, 5e-324, -2.5, 1.7976931348623157e308]
SHARED_STRS = ["", "é", '"\\/', "\udcff", "\t\n\x00", "surgery_window"]
LONG_REPORTS = {
    "sweep-key-orders": {"diagnostics": [], "slopes": sweep_shaped(3000), "status": "ok"},
    "repeated-objects": [
        {"f": SHARED_FLOATS[i % 5], "s": SHARED_STRS[i % 6],
         "both": [SHARED_FLOATS[i % 3], SHARED_STRS[i % 4]]}
        for i in range(1000)
    ],
    "zeros-and-ones": [[0.0, -0.0, 1, 1.0, True, 0, False, None][i % 8] for i in range(800)]
    + [{"v": [0.0, -0.0, 1, 1.0, True][i % 5]} for i in range(500)],
    "empty-containers": [
        [{}, [], {"a": {}}, {"a": []}, [[]], [{}], {"a": [{}, []], "b": {"c": {}}}, [[], [[]]]][i % 8]
        for i in range(400)
    ] + [{"a": {}, "b": []} for _ in range(300)] + [[[[]]] for _ in range(300)],
    # keys that a writer filling %-templates would have to escape
    "percent-keys": [
        {"%s": i, "%%": "%d", "%(a)s": [i, "%s"], "a": {"%": None, "%(a)s": 1.5}} for i in range(600)
    ],
    # Dicts are grouped by key set: one set in four key orders is one group,
    # and 300 sets, one per dict, are the most groups a column of 300 can have
    "one-set-four-orders": {"diagnostics": [], "slopes": one_key_set(3000), "status": "ok"},
    "300-sets": [
        {"id": i, f"k{i:03d}": {"v": i / 3, **({"w": [i]} if i % 2 else {})},
         **({"s": "x"} if i % 3 else {})}
        for i in range(300)
    ],
}


def assert_same_text(text: str, expected: str) -> None:
    """``text == expected``, failing with the first line that differs: pytest's
    own diff of two texts of thousands of lines takes minutes."""
    if text == expected:
        return
    pairs = zip_longest(text.splitlines(True), expected.splitlines(True))  # None past an end
    number, (got, want) = next((n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    pytest.fail(f"line {number} differs:\n  got:  {got!r}\n  want: {want!r}", pytrace=False)


@pytest.mark.parametrize("report", LONG_REPORTS.values(), ids=LONG_REPORTS)
def test_json_writer_matches_json_dumps_on_long_reports(report):
    out = io.StringIO()
    _emit(report, "json", out)
    assert_same_text(out.getvalue(),
                     json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


@pytest.mark.parametrize("bad, error", REFUSED)
def test_json_writer_refuses_the_last_of_a_long_column(bad, error):
    sweep = sweep_shaped(300)
    last = {**sweep[-2], "volumeWindow": {"lower": 1.5, "upper": bad}}
    for report in ([*range(300), bad], [1.5] * 299 + [bad], [{"a": 1.5}] * 299 + [{"a": bad}],
                   sweep + [bad], {"slopes": sweep + [last]}, [[0.5, "x"]] * 250 + [[0.5, bad]]):
        out = io.StringIO()
        with pytest.raises(error):
            _emit(report, "json", out)
        assert out.getvalue() == ""


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "report, error, message",
    [
        # In a column, the first type to appear that holds a refused value is refused
        ([1.5] * 200 + [(1, 2), NAN], ValueError, "nan"),
        ([(1, 2)] + [1.5] * 200 + [NAN], TypeError, "tuple"),
        ([1] * 200 + [Fraction(1, 3), (1, 2)], TypeError, "Fraction"),
        # and its first refused value is named
        ([1.5] * 200 + [-INF, NAN, INF], ValueError, "-inf"),
        # Columns follow sorted keys, and a depth is refused before the next
        ([{"b": NAN, "a": (1, 2)}] * 200, TypeError, "tuple"),
        ([[[[NAN]]], [(1, 2)]] * 100, TypeError, "tuple"),
        # Dicts with one key set share their columns, whatever their key order
        ([{"a": 1, "b": (1, 2)}, {"b": 1, "a": NAN}], ValueError, "nan"),
    ],
)
def test_json_writer_refuses_in_a_fixed_order(report, error, message):
    for _ in range(3):
        out = io.StringIO()
        with pytest.raises(error, match=message):
            _emit(report, "json", out)
        assert out.getvalue() == ""


# 3,000 slopes, about a third of them not in lowest terms, so that parse errors
# sit between the verdicts; q runs from -20 to 40.
SWEEP_GRID = ",".join(f"{p}/{q}" for q in range(-20, 41) if q for p in range(-25, 25))
# Each call with the entry keys that some entry of its sweep must hold
SWEEPS = {
    "delta": (["surgery", "--delta", "0", "--volume", "9"], [{"boundaryHit"}, {"windowError"}]),
    "counts": (["surgery", "--crossings", "40", "--genus", "3", "--volume", "12.5"],
               [{"lengthLower", "volumeWindow"}, {"windowError"}]),
    "montesinos": (["surgery", "--montesinos", "10"], [{"p", "q", "error"}, {"slope", "error"}]),
    "pd": (["analyze", "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]", "--volume", "2.029883212819"],
           [{"boundaryHit"}, {"windowError"}]),
    "pair": (["analyze", "--pair", "11,1,24"], [{"lengthLower", "volumeWindow"}]),
    "pretzel": (["pretzel", "3,5,7", "--volume", "9"], [{"boundaryHit"}, {"windowError"}]),
}


@pytest.mark.parametrize("argv, keys", SWEEPS.values(), ids=SWEEPS)
def test_sweep_reports_are_what_json_dumps_writes(argv, keys):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json", f"--slopes={SWEEP_GRID}"]) == 0
    text = out.getvalue()
    report = json.loads(text, parse_constant=lambda constant: pytest.fail(constant))
    assert len(report["slopes"]) == 3000
    for wanted in keys:
        assert any(wanted <= entry.keys() for entry in report["slopes"]), wanted
    assert_same_text(text, json.dumps(report, indent=2, sort_keys=True) + "\n")
