"""Command-line interface.

Subcommands: analyze (PD code), braid, pretzel, surgery, batch. Exit codes:
0 success, 1 parse or usage error, 2 bounds inapplicable (for example a
torus-degenerate diagram), so pipelines can filter non-hyperbolic inputs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import eq, is_, itemgetter, not_, sub

# The C string encoder of json.encoder, without loading the json package.
try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from . import bounds as bd
from .errors import CuspBoundsError, FileUnreadable, cut, read_int, read_number
from .pipeline import (
    STATUS_INAPPLICABLE,
    AnalysisRequest,
    parse_slope_list,
    run_analyze,
    run_batch,
    run_surgery,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INAPPLICABLE = 2


# A str as repr() quotes it, the way argparse echoes a user's argument; compiled
# by the first usage error, not at import.
_QUOTED = r"""(['"])((?:(?!\1)[^\\]|\\.)*)\1"""


def _cut_quoted(match: re.Match) -> str:
    """The str that ``match`` quotes, cut and quoted again by repr(); a run that
    does not decode as the inside of a repr() is left as it is."""
    try:
        return repr(cut(match[2].encode("latin-1", "backslashreplace").decode("unicode_escape")))
    except UnicodeDecodeError:
        return match[0]


class _Parser(argparse.ArgumentParser):
    """Usage mistakes exit 1, since status 2 is reserved for "bounds
    inapplicable". Usage and help lines are not wrapped, so that an error reads
    the same at any terminal width and on every Python version. Each argument
    an error quotes is cut to 20 characters, as ``errors.cut`` cuts numbers."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(prog, width=1 << 16),
                         **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {re.sub(_QUOTED, _cut_quoted, message)}\n")


def _int(text: str) -> int:
    try:
        return read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {cut(text)!r}") from None


def _parse_triple(text: str) -> tuple[int, int, int]:
    try:
        a, b, c = map(read_int, text.replace(",", " ").split())
    except ValueError:  # not three parts, or one that read_int refuses
        raise argparse.ArgumentTypeError(f"expected three integers, got {cut(text)!r}") from None
    return a, b, c


def _number(text: str) -> Fraction:
    try:
        return read_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_stdin() -> str:
    """The diagram text on standard input, for the argument ``-``."""
    if sys.stdin is None:  # started with file descriptor 0 closed
        raise FileUnreadable("cannot read standard input: it is closed")
    try:
        return sys.stdin.read().strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileUnreadable(f"cannot read standard input: {exc}") from None


def _sig(x) -> str:
    return f"{float(x):.12g}"


def _print_bounds(report: dict, out) -> None:
    bounds = report.get("bounds")
    if bounds is None:
        return
    for key, label in (("meridian", "meridian"), ("lambda", "lambda"), ("cuspArea", "cusp area")):
        entry = bounds.get(key)
        if entry is not None:
            print(f"  {label} <= {_sig(entry['value'])}   [{entry['rule']}]", file=out)
    print(f"  consistent with six-theorem ceiling: {bounds['sixTheoremConsistent']}", file=out)


def _print_text(report: dict, out) -> None:
    print(f"status: {report['status']}", file=out)
    for diag in report.get("diagnostics", []):
        print(f"note: {diag}", file=out)
    inv = report.get("invariants")
    if inv is not None:
        delta = inv["delta"]
        print(
            f"  c={inv['c']} vA={inv['vA']} vB={inv['vB']} chiA={inv['chiA']} "
            f"chiB={inv['chiB']} gT={inv['gT']} delta={delta['num']}/{delta['den']}",
            file=out,
        )
        print(
            f"  adequate: A={inv['aAdequate']} B={inv['bAdequate']}"
            + (
                f"   twists: t={inv['t']} bigons={inv['vBi']} torusDegenerate={inv['torusDegenerate']}"
                if inv.get("t") is not None
                else ""
            ),
            file=out,
        )
    if report.get("surfacePair"):
        sp = report["surfacePair"]
        print(
            f"  surface pair: |chi| = {sp['absChi1']}, {sp['absChi2']}, "
            f"intersection = {sp['intersection']}",
            file=out,
        )
    if report.get("braidVerdict"):
        print(f"  braid criterion: {report['braidVerdict']}", file=out)
    _print_bounds(report, out)
    if report.get("criterion") is not None:
        crit = report["criterion"]
        print(f"  budget {_sig(crit['budget'])}: satisfied={crit['satisfied']}", file=out)
    for slope in report.get("slopes") or []:
        if "error" in slope:
            label = slope.get("slope", f"{slope.get('p')}/{slope.get('q')}")
            print(f"  slope {label}: error {slope['error']['message']}", file=out)
            continue
        window = slope.get("volumeWindow")
        window_text = (
            f" vol in ({_sig(window['lower'])}, {_sig(window['upper'])})" if window else ""
        )
        length = slope.get("lengthLower")
        length_text = f" length > {_sig(length)}" if length is not None else ""
        if "windowError" in slope:
            window_text = f" window error {slope['windowError']['message']}"
        if slope.get("boundaryHit"):
            window_text += " boundaryHit=True"
        print(
            f"  slope {slope['p']}/{slope['q']}: nonExceptional={slope['nonExceptional']} "
            f"twoPi={slope['twoPiExceeded']}{length_text}{window_text}",
            file=out,
        )


def _print_batch_text(report: dict, out) -> None:
    for row in report["rows"]:
        if row["status"] == "skip":
            print(f"  {row['name']}: skip ({row['note']})", file=out)
        else:
            print(
                f"  {row['name']}: {row['status']} bound={_sig(row['computedBound'])} "
                f"reference={_sig(row['referenceMeridian'])} slack={_sig(row['slack'])}",
                file=out,
            )
    summary = report["summary"]
    print(
        f"pass={summary['pass']} fail={summary['fail']} skip={summary['skip']}",
        file=out,
    )


_LITERALS = {True: "true", False: "false", None: "null"}.__getitem__
# The writer of each exact scalar type but float. On slope sweep reports, a
# float's repr took about three times as long as finding its text again by
# id(), so each float object is written once; these types took less time than
# that lookup, so each value is written.
_SCALARS = {str: encode_basestring_ascii, int: repr, bool: _LITERALS, type(None): _LITERALS}


def _texts(columns: list, newline: str) -> list:
    """What ``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``
    writes for each value of each column in ``columns``: lists of values, all
    at the depth whose line break and indent are ``newline``.

    A report is written a depth at a time, and a depth a column at a time: a
    column is the values under one key of dicts with one key set, or the
    items of lists. A column is parted by exact type, and each part is written
    in one ``map``. Each float object is written once, keyed by ``id()``: the
    report keeps every object alive. Dicts with one key set, in any key order,
    share their sorted key lines and hand a column per key to one call a depth
    down; lists hand it their items. The key sets are found by comparing
    ``keys()`` views, so no object is kept per dict. Any other type raises
    ``TypeError`` before it is iterated, and a non-finite float ``ValueError``.
    The first refusal is the one met first depth by depth, then column by
    column (key sets in order of first appearance, sorted keys within one),
    then by type in order of first appearance in the column."""
    inner, below, parted = newline + "  ", [], []
    for values in columns:
        kinds = dict.fromkeys(map(type, values))  # in order of first appearance
        parts = []  # (kind, values of that kind, their texts or their keys)
        for kind in kinds:
            part = values if len(kinds) == 1 else list(
                compress(values, map(is_, map(type, values), repeat(kind))))
            if kind in _SCALARS:
                parts.append((kind, part, list(map(_SCALARS[kind], part))))
            elif kind is float:
                if sum(map(sub, part, part)):  # nan for nan and either infinity
                    bad = next(x for x in part if x - x)
                    raise ValueError(f"out of range float value for JSON: {bad!r}")
                distinct = dict(zip(map(id, part), part))
                written = dict(zip(distinct, map(repr, distinct.values())))
                parts.append((kind, part, list(map(written.__getitem__, map(id, part)))))
            elif kind is dict:  # one key set at a time, in order of first appearance
                rest = part
                while rest:
                    view = rest[0].keys()
                    marks = list(map(eq, map(dict.keys, rest), repeat(view)))
                    same, rest = (rest, ()) if all(marks) else (
                        list(compress(rest, marks)), list(compress(rest, map(not_, marks))))
                    keys = sorted(view)
                    below.extend(list(map(itemgetter(key), same)) for key in keys)
                    parts.append((kind, same, list(map(encode_basestring_ascii, keys))))
            elif kind is list:
                below.append(list(chain.from_iterable(part)))
                parts.append((kind, part, None))
            else:
                raise TypeError(f"{kind.__name__} is not a JSON report type")
        parted.append((values, parts))
    done = iter(_texts(below, inner) if below else ())  # in the order ``below`` was filled
    out = []
    for values, parts in parted:
        by_id = {}
        for kind, part, texts in parts:
            if kind is dict:  # each key line, then its column's texts
                prefix, rows = "{" + inner, []
                for key in texts:
                    rows += repeat(prefix + key + ": "), next(done)
                    prefix = "," + inner
                rows.append(repeat(newline + "}") if rows else repeat("{}", len(part)))
                texts = list(map("".join, zip(*rows)))
            elif kind is list:
                items, start, texts = next(done), 0, []
                for value in part:
                    end = start + len(value)
                    texts.append("[" + inner + ("," + inner).join(items[start:end]) + newline + "]"
                                 if value else "[]")
                    start = end
            if len(parts) > 1:
                by_id.update(zip(map(id, part), texts))
        out.append(texts if len(parts) == 1 else list(map(by_id.__getitem__, map(id, values))))
    return out


def _emit(report: dict, fmt: str, out, print_text=_print_text) -> None:
    """Print ``report`` as text, or as JSON once all of it is encoded, so that a
    refused value writes nothing. JSON goes out in 8 KiB pieces: an unbuffered
    stream (``python -u``) drops the rest of a write that a closed pipe took in
    part, and the next piece raises ``BrokenPipeError``."""
    if fmt != "json":
        print_text(report, out)
        return
    text = _texts([[report]], "\n")[0][0] + "\n"
    for start in range(0, len(text), 8192):
        out.write(text[start:start + 8192])


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--volume", type=lambda text: float(_number(text)),
                        help="complement volume for surgery windows")
    parser.add_argument("--slopes", type=parse_slope_list, help="p/q[,p/q...]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuspbounds",
        description="Diagrammatic upper bounds on meridian length, lambda length, "
        "and cusp area of hyperbolic knots, plus surgery slope filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a PD code (or a raw surface pair)")
    p_analyze.add_argument(
        "pd", nargs="?", help="PD code, e.g. 'X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]', or - for stdin")
    p_analyze.add_argument(
        "--pair", type=_parse_triple, help="raw |chi1|,|chi2|,intersection triple"
    )

    p_braid = sub.add_parser("braid", help="analyze a braid closure, e.g. '3: s1^3 s2^-3'")
    p_braid.add_argument("braid", metavar="word", help="braid word, or - for stdin")

    p_pretzel = sub.add_parser("pretzel", help="bounds for the pretzel P(a,-b,-c), a,b,c odd > 1")
    p_pretzel.add_argument("pretzel", metavar="params", type=_parse_triple, help="a,b,c")

    for p_diagram in (p_analyze, p_braid, p_pretzel):
        p_diagram.add_argument(
            "--budget", type=_number, help="length budget for the criterion check"
        )
        _add_common(p_diagram)

    p_surgery = sub.add_parser("surgery", help="per-slope exclusion and volume windows")
    group = p_surgery.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=_number, help="the rational (2g-2)/c")
    group.add_argument("--crossings", type=_int, help="crossing count (with --genus)")
    group.add_argument("--montesinos", type=_int, help="Montesinos twist number t")
    p_surgery.add_argument("--genus", type=_int, help="diagram genus (with --crossings)")
    _add_common(p_surgery)

    p_batch = sub.add_parser("batch", help="cross-check a CSV of tabulated meridian lengths")
    p_batch.add_argument("csv_path")
    p_batch.add_argument("--format", choices=("json", "text"), default="text")
    for command_parser in sub.choices.values():
        command_parser.set_defaults(command_parser=command_parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early (``| head``). As the Python docs advise for SIGPIPE,
        # point stdout at devnull so that the final flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # with the usage of the subcommand that refused them, the first few cut
        more = f" and {len(unknown) - 5} more" if len(unknown) > 5 else ""
        args.command_parser.error(f"unrecognized arguments: {' '.join(map(cut, unknown[:5]))}{more}")
    usage, out = args.command_parser.error, sys.stdout
    if getattr(args, "slopes", None) == ():  # given, but as "," or ""
        usage("--slopes lists no slope")
    try:
        if args.command in ("analyze", "braid", "pretzel"):
            if args.command == "analyze" and (args.pd is None) == (args.pair is None):
                usage("analyze needs a PD code or --pair, not both")
            # Each subcommand stores its input under the request field it sets.
            sources = {k: getattr(args, k, None) for k in ("pd", "braid", "pretzel", "pair")}
            for key in ("pd", "braid"):
                if sources[key] == "-":
                    sources[key] = _read_stdin()
            request = AnalysisRequest(
                **sources,
                budget=args.budget,
                volume=args.volume,
                slopes=args.slopes or (),
            )
            report = run_analyze(request)
        elif args.command == "surgery":
            if (args.crossings is None) != (args.genus is None):
                usage("--crossings needs --genus" if args.genus is None else "--genus needs --crossings")
            if args.slopes is None:
                usage("surgery needs --slopes")
            meridian = None  # --montesinos
            if args.delta is not None:
                meridian = 3 * (1 + args.delta)
            elif args.crossings is not None:
                meridian = bd.adequate_bounds_from_counts(args.crossings, args.genus)["meridian"]
            verdicts = run_surgery(args.slopes, meridian, montesinos_t=args.montesinos,
                                   volume=args.volume, lengths=args.crossings is not None)
            report = {"status": "ok", "diagnostics": [], "slopes": verdicts}
        else:  # batch
            report = run_batch(args.csv_path).to_dict()
            _emit(report, args.format, out, _print_batch_text)
            return EXIT_ERROR if report["summary"]["fail"] else EXIT_OK
    except CuspBoundsError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(report, args.format, out)
    return EXIT_INAPPLICABLE if report.get("status") == STATUS_INAPPLICABLE else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
