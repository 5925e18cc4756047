"""Command-line interface.

Subcommands: analyze (PD code), braid, pretzel, surgery, batch. Exit codes:
0 success, 1 parse or usage error, 2 bounds inapplicable (for example a
torus-degenerate diagram), so pipelines can filter non-hyperbolic inputs.

A report is written from its dict alone, in one of two forms that write
each scalar alike: ``--format json``, as ``json.dumps(indent=2,
sort_keys=True)`` writes it, or text, one line per dict or list that has a
scalar member (``_text_lines``). Either writes nothing if a value is refused.
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


def _text_lines(value, path: str = ""):
    """The lines of the text form of ``value``, a report or a dict or list in
    one at ``path``. Each dict or list with an inline member (a scalar, or an
    empty dict or list) has one line, ``path: member member ...``; a member is
    ``key=text`` in a dict and ``[i]=text`` in a list, in sorted key or index
    order, and ``text`` is what ``_texts`` writes for it. The report's own line
    has no path. Lines go depth first: a value's own line, then its non-empty
    dicts and lists, whose paths join keys with ``.`` and add list items as
    ``[i]`` (``slopes[2].volumeWindow``). What the JSON writer refuses raises
    ``TypeError`` or ``ValueError`` here too."""
    if type(value) is dict:  # a key that is not a str raises TypeError at ``+``
        items = [(key + "=", f"{path}.{key}" if path else key, value[key]) for key in sorted(value)]
    else:
        items = [(f"[{i}]=", f"{path}[{i}]", member) for i, member in enumerate(value)]
    inline = [(label, member) for label, _, member in items
              if type(member) not in (dict, list) or not member]
    if inline:
        labels, members = zip(*inline)
        line = " ".join(map(str.__add__, labels, _texts([list(members)], "\n")[0]))
        yield f"{path}: {line}" if path else line
    for _, member_path, member in items:
        if type(member) in (dict, list) and member:
            yield from _text_lines(member, member_path)


def _emit(report: dict, fmt: str, out) -> None:
    """Write ``report`` as JSON or as text once all of it is encoded, so that a
    refused value writes nothing. Either goes out in 8 KiB pieces: an
    unbuffered stream (``python -u``) drops the rest of a write that a closed
    pipe took in part, and the next piece raises ``BrokenPipeError``."""
    if fmt == "json":
        text = _texts([[report]], "\n")[0][0] + "\n"
    else:
        text = "".join(line + "\n" for line in _text_lines(report))
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
            if args.volume is not None and args.slopes is None:
                usage("--volume needs --slopes")
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
            if args.montesinos is not None and args.volume is not None:
                usage("--montesinos takes no --volume")  # t alone gives the window
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
            _emit(report, args.format, out)
            return EXIT_ERROR if report["summary"]["fail"] else EXIT_OK
    except CuspBoundsError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(report, args.format, out)
    return EXIT_INAPPLICABLE if report.get("status") == STATUS_INAPPLICABLE else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
