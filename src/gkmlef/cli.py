"""Command-line front end: analyze, render, validate.

Exit codes for analyze: 0 clean, 1 input or usage error, 2 when the
constancy hypothesis fails (the report is still produced).
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from . import catalog
from .analysis import analyze, report_to_json, report_to_text
from .exact import parse_rational
from .model import GkmValidationError, parse_gkm, run_checks
from .render import render_svg


class _UsageError(Exception):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code analyze keeps for a failed
    # hypothesis; raise instead, so main reports it as exit 1
    def error(self, message):
        raise _UsageError(message)


_INTEGER_RE = re.compile(r"-?[0-9]+")


def _parse_xi(text):
    # int() would also take "1_0", "+1", " 1" and non-ASCII digits
    parts = text.split(",")
    if not all(_INTEGER_RE.fullmatch(p) for p in parts):
        raise GkmValidationError("bad --xi %r: expected comma-separated integers" % text)
    return tuple(int(p) for p in parts)


def _load_input(args):
    """Resolve --example or a path to (name, document_bytes, default_xi)."""
    # an option given with an empty value is malformed, not absent
    if args.example is not None:
        if args.path:
            raise GkmValidationError("give either a path or --example, not both")
        scale = parse_rational(args.scale) if args.scale is not None else None
        entry = catalog.get(args.example, scale=scale)
        return entry.name, entry.document.encode(), entry.default_xi
    if not args.path:
        raise GkmValidationError("no input: give a document path or --example NAME")
    if args.scale is not None:
        raise GkmValidationError("--scale applies only to --example")
    with open(args.path, "rb") as fh:
        return args.path, fh.read(), None


def cmd_analyze(args):
    name, data, default_xi = _load_input(args)
    graph = parse_gkm(data.decode("utf-8"))
    xi = _parse_xi(args.xi) if args.xi is not None else default_xi
    if xi is None:
        raise GkmValidationError("no --xi given and the input has no default circle")
    report, code = analyze(graph, xi, name=name, source_bytes=data,
                           shift_min=args.shift_min, with_timings=args.timings)
    text = report_to_json(report) if args.format == "json" else report_to_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def cmd_render(args):
    name, data, default_xi = _load_input(args)
    graph = parse_gkm(data.decode("utf-8"))
    xi = _parse_xi(args.xi) if args.xi is not None else default_xi
    projection = None
    if args.projection is not None:
        rows = args.projection.split(";")
        projection = [[parse_rational(x) for x in row.split(",")] for row in rows]
    svg = render_svg(graph, xi=xi, projection=projection)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


def cmd_validate(args):
    name, data, _ = _load_input(args)
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        sys.stdout.write("FAIL document-structure: malformed JSON: %s\n" % exc)
        return 0
    checks = run_checks(doc)
    for check, ok, detail in checks:
        line = "%s %s" % ("PASS" if ok else "FAIL", check)
        if detail and not ok:
            line += ": " + detail
        sys.stdout.write(line + "\n")
    sys.stdout.write("verdict: %s\n"
                     % ("valid" if all(ok for _, ok, _ in checks) else "invalid"))
    return 0


def build_parser():
    parser = _Parser(
        prog="gkmlef",
        description="Exact workbench for GKM fixed-point data of Hamiltonian "
                    "circle actions: canonical classes, Kirwan reduction, and "
                    "the hard Lefschetz property.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", nargs="?", help="GKM document (JSON)")
        p.add_argument("--example", help="built-in example name, e.g. %s"
                       % ", ".join(catalog.names()))
        p.add_argument("--xi", help="circle selection, comma-separated integers")
        p.add_argument("--scale", help="scale for scalable examples (rational)")

    p_an = sub.add_parser("analyze", help="run the full analysis")
    common(p_an)
    p_an.add_argument("--shift-min", action="store_true",
                      help="normalize the moment map so its minimum is zero")
    p_an.add_argument("--format", choices=("json", "text"), default="json")
    p_an.add_argument("--out", help="write the report to a file")
    p_an.add_argument("--timings", action="store_true",
                      help="include wall-clock timings (breaks byte stability)")
    p_an.set_defaults(func=cmd_analyze)

    p_re = sub.add_parser("render", help="render the moment image to SVG")
    common(p_re)
    p_re.add_argument("--out", help="output SVG path")
    p_re.add_argument("--projection",
                      help="two projection rows, e.g. '1,0,0;0,1,0' "
                           "(required unless rank = 2)")
    p_re.set_defaults(func=cmd_render)

    p_va = sub.add_parser("validate", help="check every document invariant")
    common(p_va)
    p_va.set_defaults(func=cmd_validate)
    return parser


_SIGNED_OPTIONS = ("--xi", "--scale", "--projection")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # fold "--xi -1,1" into "--xi=-1,1", and likewise every option whose value
    # may start with a minus sign, so that sign survives argparse; a following
    # option is not a value
    i = 0
    while i + 1 < len(argv):
        if argv[i] in _SIGNED_OPTIONS and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
        i += 1
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, GkmValidationError, KeyError, ValueError, OSError) as exc:
        # str() of a KeyError quotes its message
        sys.stderr.write("error: %s\n" % (exc.args[0] if isinstance(exc, KeyError) else exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
