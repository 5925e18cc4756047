"""Fuzzing the CLI in process with mutated inputs of every kind.

Whatever the input, ``cli.main`` returns 0, 1 or 2, or argparse exits with
status 1 for a usage mistake; nothing else escapes. Every ``error[...]``
line names a ``CuspBoundsError`` subclass, and every JSON report is strict
JSON, without NaN or Infinity.
"""

import contextlib
import csv
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cuspbounds import errors
from cuspbounds.cli import main

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
    st.sampled_from(["0", "", "-", "1.5", "1e400", "nan", "inf", str(10**12), NINES]),
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
FORMATS = st.sampled_from(["json", "text"])


def options(draw, names) -> list[str]:
    argv = []
    for name in names:
        if draw(st.booleans()):
            value = draw(BUDGETS if name in ("--budget", "--delta") else
                         SLOPES if name == "--slopes" else NUMBERS)
            argv.append(f"{name}={value}")
    return argv


@st.composite
def diagram_calls(draw):
    kind = draw(st.sampled_from(["analyze", "braid", "pretzel", "pair"]))
    if kind == "analyze":
        argv = ["analyze", draw(mutated(PDS, "X[](),- 0123456789"))]
    elif kind == "braid":
        argv = ["braid", draw(mutated(BRAIDS, ":s^- 0123456789"))]
        if draw(st.booleans()):
            argv.append("--prime")
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


def run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 1, argv
            return
    assert code in (0, 1, 2), argv
    for line in err.getvalue().splitlines():
        if line.startswith("error["):
            assert line[len("error["):line.index("]")] in CODES, line
    if "json" in argv and out.getvalue():

        def reject(constant):
            raise AssertionError(f"non-finite number {constant} in JSON output")

        json.loads(out.getvalue(), parse_constant=reject)


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
