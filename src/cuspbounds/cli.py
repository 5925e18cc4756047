"""Command-line interface.

Subcommands: analyze (PD code), braid, pretzel, surgery, batch. Exit codes:
0 success, 1 parse or usage error, 2 bounds inapplicable (for example a
torus-degenerate diagram), so pipelines can filter non-hyperbolic inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .errors import CuspBoundsError
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


class _Parser(argparse.ArgumentParser):
    """Usage mistakes exit 1, since status 2 is reserved for "bounds
    inapplicable". Usage and help lines are not wrapped, so that an error reads
    the same at any terminal width and on every Python version."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(prog, width=1 << 16),
                         **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = [part for part in text.replace(",", " ").split() if part]
    if len(parts) != 3:
        raise ValueError(f"expected three integers, got {text!r}")
    return tuple(int(part) for part in parts)  # type: ignore[return-value]


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _finite_fraction(text: str) -> Fraction:
    """``text`` as an exact Fraction (``7/2``, ``0.25``, ``1e3``), refused unless its
    float is finite, and non-zero for a non-zero number. A decimal is read as a
    float first, so that ``1e-999999999`` never builds the power of ten that
    Fraction would."""
    try:
        if "/" not in text:
            approx = float(text)
            if not math.isfinite(approx):
                raise OverflowError
            if approx == 0:
                if text.lower().partition("e")[0].strip(" +-0."):
                    raise OverflowError  # a non-zero number whose float underflows
                return Fraction(0)
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a number with a finite float: {text!r}") from None
    return value


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
        print(
            f"  slope {slope['p']}/{slope['q']}: nonExceptional={slope['nonExceptional']} "
            f"twoPi={slope['twoPiExceeded']}{length_text}{window_text}",
            file=out,
        )


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _print_text(report, out)


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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--volume", type=_finite_float, help="complement volume for surgery windows")
    parser.add_argument("--slopes", type=parse_slope_list, default=(), help="p/q[,p/q...]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuspbounds",
        description="Diagrammatic upper bounds on meridian length, lambda length, "
        "and cusp area of hyperbolic knots, plus surgery slope filters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a PD code (or a raw surface pair)")
    p_analyze.add_argument("pd", nargs="?", help="PD code, e.g. 'X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]'")
    p_analyze.add_argument(
        "--pair", type=_parse_triple, help="raw |chi1|,|chi2|,intersection triple"
    )

    p_braid = sub.add_parser("braid", help="analyze a braid closure, e.g. '3: s1^3 s2^-3'")
    p_braid.add_argument("braid", metavar="word")
    p_braid.add_argument(
        "--prime", action="store_true", help="assert the diagram is prime (caller's responsibility)"
    )

    p_pretzel = sub.add_parser("pretzel", help="bounds for the pretzel P(a,-b,-c), a,b,c odd > 1")
    p_pretzel.add_argument("pretzel", metavar="params", type=_parse_triple, help="a,b,c")

    for p_diagram in (p_analyze, p_braid, p_pretzel):
        p_diagram.add_argument(
            "--budget", type=_finite_fraction, help="length budget for the criterion check"
        )
        _add_common(p_diagram)

    p_surgery = sub.add_parser("surgery", help="per-slope exclusion and volume windows")
    group = p_surgery.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=_finite_fraction, help="the rational (2g-2)/c")
    group.add_argument("--crossings", type=int, help="crossing count (with --genus)")
    group.add_argument("--montesinos", type=int, help="Montesinos twist number t")
    p_surgery.add_argument("--genus", type=int, help="diagram genus (with --crossings)")
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
    if unknown:  # with the usage of the subcommand that refused them
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    out = sys.stdout
    try:
        if args.command in ("analyze", "braid", "pretzel"):
            if args.command == "analyze" and (args.pd is None) == (args.pair is None):
                parser.error("analyze needs a PD code or --pair, not both")
            # Each subcommand stores its input under the request field it sets.
            sources = {k: getattr(args, k, None) for k in ("pd", "braid", "pretzel", "pair")}
            request = AnalysisRequest(
                **sources,
                budget=args.budget,
                volume=args.volume,
                slopes=args.slopes,
                prime_asserted=getattr(args, "prime", False),
            )
            report = run_analyze(request)
        elif args.command == "surgery":
            if args.crossings is not None and args.genus is None:
                parser.error("--crossings needs --genus")
            if not args.slopes:
                parser.error("surgery needs --slopes")
            verdicts = run_surgery(
                slopes=args.slopes,
                delta=args.delta,
                c=args.crossings,
                g_t=args.genus,
                montesinos_t=args.montesinos,
                volume=args.volume,
            )
            report = {"status": "ok", "diagnostics": [], "slopes": verdicts}
        else:  # batch
            report = run_batch(args.csv_path).to_dict()
            if args.format == "json":
                _emit(report, "json", out)
            else:
                _print_batch_text(report, out)
            return EXIT_ERROR if report["summary"]["fail"] else EXIT_OK
    except CuspBoundsError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"error[ValueError]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(report, args.format, out)
    return EXIT_INAPPLICABLE if report.get("status") == STATUS_INAPPLICABLE else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
