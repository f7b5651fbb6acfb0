"""Command-line surface: graph export, operator words, conversion, verification.

Elements travel as JSON (stdin or ``--input``); graphs leave as DOT or JSON
on stdout or ``--out``, piece by piece.  Exit codes: 0 success, 1 property
violation, 2 usage or input error, with one stderr line (a failed write leaves
a partial document).  Depths beyond ``DEFAULT_DEPTH_CAP`` (12) are refused
without ``--force`` since level sizes grow like the Kostant partition
function.  ``convert`` routes through M(infinity), so ``--from minf`` and
``--from monomial`` keep the family parameters ``(p1, p2, r)`` when the
target is ``minf`` or ``monomial``; tableaux and ``cliff`` exist for (1, 1, 0) only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .graph import _dot_chunks, _json_chunks, bfs, element_from_json, highest_element
from .isomorphisms import REALIZATIONS, convert
from .verify import SUITES, SuiteReport

DEFAULT_DEPTH_CAP = 12

_WORD_OPS = {"f1": ("f", 1), "f2": ("f", 2), "e1": ("e", 1), "e2": ("e", 2)}


def _check_depth(depth, force):
    if depth < 0:
        raise ValueError(f"depth must be nonnegative and an int, got {depth!r}")
    if depth > DEFAULT_DEPTH_CAP and not force:
        raise ValueError(
            f"depth {depth} exceeds the cap {DEFAULT_DEPTH_CAP}; pass --force to override"
        )
    return depth


def _read_element(args):
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = sys.stdin.read()
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid element JSON: {exc}") from None
    return element_from_json(args.realization, obj)


def cmd_graph(args):
    depth = _check_depth(args.depth, args.force)
    graph = bfs(highest_element(args.realization), depth, args.realization)
    chunks = _dot_chunks(graph) if args.format == "dot" else _json_chunks(graph)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return 0


def cmd_apply(args):
    elem = _read_element(args)
    for token in args.word.split():
        if token not in _WORD_OPS:
            raise ValueError(f"unknown operator {token!r}; expected f1, f2, e1 or e2")
        op, i = _WORD_OPS[token]
        elem = getattr(elem, op)(i)
        if elem is None:
            print("ZERO")
            return 0
    print(json.dumps(elem.to_json()))
    return 0


def cmd_convert(args):
    target = convert(_read_element(args), args.realization, args.to_realization)
    print(json.dumps(target.to_json()))
    return 0


def cmd_verify(args):
    try:
        report = SUITES[args.suite](_check_depth(args.depth, args.force))
    except RuntimeError as exc:  # a broken invariant is a failed suite, not a crash
        report = SuiteReport(args.suite)
        report.fail(str(exc))
    print(report.summary())
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):  # subcommand parsers are built with it too
    def error(self, message):  # a usage error ends like an input error: one line, exit 2
        self.exit(2, f"g2crystal: {' '.join(message.splitlines())}\n")


def build_parser():
    parser = _Parser(
        prog="g2crystal",
        description="Enumerate, convert and verify combinatorial models of the G2 infinity crystal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    names = sorted(REALIZATIONS)

    p_graph = sub.add_parser("graph", help="export the crystal graph from the highest element")
    p_graph.add_argument("--realization", choices=names, required=True)
    p_graph.add_argument("--depth", type=int, required=True)
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.add_argument("--out", default="-", help="output path, - for stdout")
    p_graph.add_argument("--force", action="store_true", help="allow depths beyond the cap")
    p_graph.set_defaults(func=cmd_graph)

    p_apply = sub.add_parser("apply", help="apply an operator word to an element")
    p_apply.add_argument("--realization", choices=names, required=True)
    p_apply.add_argument("--word", required=True, help="space-separated f1/f2/e1/e2 tokens")
    p_apply.add_argument("--input", default="-", help="element JSON path, - for stdin")
    p_apply.set_defaults(func=cmd_apply)

    p_convert = sub.add_parser("convert", help="convert an element between realizations")
    p_convert.add_argument("--from", dest="realization", choices=names, required=True)
    p_convert.add_argument("--to", dest="to_realization", choices=names, required=True)
    p_convert.add_argument("--input", default="-", help="element JSON path, - for stdin")
    p_convert.set_defaults(func=cmd_convert)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--depth", type=int, default=6)
    p_verify.add_argument("--force", action="store_true", help="allow depths beyond the cap")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left is reported here, not at exit
        return code
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # drop what stdout buffers, or exit flushes it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"g2crystal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
