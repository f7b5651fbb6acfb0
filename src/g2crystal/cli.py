"""Command-line surface: graph export, operator words, conversion, verification.

Elements travel as JSON (stdin or ``--input``); graphs leave as DOT or JSON
on stdout or ``--out``.  Exit codes: 0 success, 1 property violation,
2 usage or input error.  Depths beyond the cap (environment variable
``G2CRYSTAL_DEPTH_CAP``, default 12) are refused without ``--force`` since
level sizes grow like the Kostant partition function; a cap that is not an
integer is an input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .graph import REALIZATIONS, bfs, element_from_json, highest_element, to_dot, to_json
from .isomorphisms import (
    cliff_to_tableau,
    minf_to_tableau,
    tableau_to_cliff,
    tableau_to_minf,
)
from .minf import minf_from_monomial
from .verify import SUITES, check_bookkeeping, check_shift_family

DEFAULT_DEPTH_CAP = 12

_WORD_OPS = {"f1": ("f", 1), "f2": ("f", 2), "e1": ("e", 1), "e2": ("e", 2)}


def _depth_cap():
    raw = os.environ.get("G2CRYSTAL_DEPTH_CAP", "")
    if not raw:
        return DEFAULT_DEPTH_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"G2CRYSTAL_DEPTH_CAP must be an integer, got {raw!r}") from None


def _check_depth(depth, force):
    cap = _depth_cap()
    if depth > cap and not force:
        raise ValueError(f"depth {depth} exceeds the cap {cap}; pass --force to override")
    return depth


def _read_element(args):
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = sys.stdin.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid element JSON: {exc}") from None
    return element_from_json(args.realization, obj)


def _to_tableau(realization, elem):
    if realization == "tableaux":
        return elem
    if realization == "minf":
        return minf_to_tableau(elem)
    if realization == "cliff":
        return cliff_to_tableau(elem)
    return minf_to_tableau(minf_from_monomial(elem))


def _from_tableau(realization, tab):
    if realization == "tableaux":
        return tab
    if realization == "minf":
        return tableau_to_minf(tab)
    if realization == "cliff":
        return tableau_to_cliff(tab)
    return tableau_to_minf(tab).to_monomial()


def cmd_graph(args):
    depth = _check_depth(args.depth, args.force)
    graph = bfs(highest_element(args.realization), depth, args.realization)
    text = to_dot(graph) if args.format == "dot" else to_json(graph)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    elem = _read_element(args)
    target = _from_tableau(args.to_realization, _to_tableau(args.realization, elem))
    print(json.dumps(target.to_json()))
    return 0


def cmd_verify(args):
    depth = _check_depth(args.depth, args.force)
    if args.suite == "bookkeeping":
        report = check_bookkeeping()
    elif args.suite == "shift":
        report = check_shift_family(depth)
    else:
        report = SUITES[args.suite](depth)
    print(report.summary())
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
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
    p_verify.add_argument(
        "suite", choices=sorted(SUITES) + ["bookkeeping", "shift"]
    )
    p_verify.add_argument("--depth", type=int, default=6)
    p_verify.add_argument("--force", action="store_true", help="allow depths beyond the cap")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"g2crystal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
