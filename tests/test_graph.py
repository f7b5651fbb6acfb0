from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from g2crystal.cartan import POSITIVE_ROOTS
from g2crystal.graph import (
    bfs,
    highest_element,
    iso_check,
    kostant_partitions,
    to_dot,
    to_json,
    weight_census,
)
from g2crystal.minf import MinfElement, highest_minf
from g2crystal.monomials import ExtMonomial, highest_monomial
from g2crystal.tableaux import highest_tableau

from conftest import DEPTH2_COUNTS, DEPTH2_YFORMS

GOLDEN = Path(__file__).parent / "golden"


def test_bfs_depth_one():
    graph = bfs(highest_minf(), 1, "minf")
    assert graph.node_count() == 3
    assert len(graph.edges) == 2
    assert {i for _s, i, _d in graph.edges} == {1, 2}


def test_bfs_depth_two_matches_known_slice():
    graph = bfs(highest_monomial(), 2, "monomial")
    expected = {ExtMonomial(exp).key() for exp in DEPTH2_YFORMS.values()}
    assert set(graph.nodes) == expected
    assert graph.node_count() == 7 and len(graph.edges) == 6
    graph_x = bfs(highest_minf(), 2, "minf")
    expected_x = {MinfElement(*c).key() for c in DEPTH2_COUNTS.values()}
    assert set(graph_x.nodes) == expected_x
    # edge colors: each of the three non-leaf nodes has one edge of each color
    out = graph_x.out_edges()
    for word in ((), (1,), (2,)):
        elem = highest_minf()
        for i in word:
            elem = elem.f(i)
        for i in (1, 2):
            assert out[(elem.key(), i)] == elem.f(i).key()


def test_bfs_depth_zero():
    graph = bfs(highest_tableau(), 0, "tableaux")
    assert graph.node_count() == 1 and not graph.edges


def test_census_depth_two():
    census = weight_census(bfs(highest_minf(), 2, "minf"))
    assert census == {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (2, 0): 1,
        (1, 1): 2,
        (0, 2): 1,
    }


def test_census_is_stable_in_depth():
    shallow = weight_census(bfs(highest_minf(), 3, "minf"))
    deep = weight_census(bfs(highest_minf(), 5, "minf"))
    for (a, b), count in shallow.items():
        assert deep[(a, b)] == count


def test_kostant_partitions():
    assert kostant_partitions(0, 0) == 1
    assert kostant_partitions(1, 1) == 2
    assert kostant_partitions(2, 1) == 3
    assert kostant_partitions(1, 2) == 2
    assert kostant_partitions(3, 1) == 4
    with pytest.raises(ValueError):
        kostant_partitions(-1, 0)


def _reference_kostant(a, b):
    """The direct recursion over the positive roots that the table replaced."""

    def count(idx, x, y):
        if x == 0 and y == 0:
            return 1
        if idx == len(POSITIVE_ROOTS):
            return 0
        ra, rb = POSITIVE_ROOTS[idx]
        total = 0
        n = 0
        while n * ra <= x and n * rb <= y:
            total += count(idx + 1, x - n * ra, y - n * rb)
            n += 1
        return total

    return count(0, a, b)


def test_kostant_table_matches_recursion():
    for a in range(21):
        for b in range(21 - a):
            assert kostant_partitions(a, b) == _reference_kostant(a, b), (a, b)
    for a, b in ((-1, 3), (2, -1)):
        with pytest.raises(ValueError):
            kostant_partitions(a, b)


def test_iso_check_identity_and_cross():
    g = bfs(highest_minf(), 4, "minf")
    assert iso_check(g, g)
    h = bfs(highest_tableau(), 4, "tableaux")
    assert iso_check(g, h)


def test_iso_check_detects_recoloring():
    g = bfs(highest_minf(), 3, "minf")
    h = bfs(highest_minf(), 3, "minf")
    src, i, dst = h.edges[-1]
    h.edges[-1] = (src, 3 - i, dst)
    assert not iso_check(g, h)


def test_iso_check_depth_mismatch():
    with pytest.raises(ValueError):
        iso_check(bfs(highest_minf(), 2, "minf"), bfs(highest_minf(), 3, "minf"))


def test_exports_are_deterministic():
    first = to_dot(bfs(highest_minf(), 3, "minf"))
    second = to_dot(bfs(highest_minf(), 3, "minf"))
    assert first == second
    assert to_json(bfs(highest_minf(), 3, "minf")) == to_json(bfs(highest_minf(), 3, "minf"))


def test_export_shapes():
    graph = bfs(highest_minf(), 0, "minf")
    dot = to_dot(graph)
    assert dot.startswith("digraph crystal {") and dot.count("->") == 0
    payload = json.loads(to_json(bfs(highest_minf(), 2, "minf")))
    assert len(payload["nodes"]) == 7 and len(payload["edges"]) == 6
    assert payload["root"] == "n0"
    assert payload["nodes"][0]["weight"] == [0, 0]


@pytest.mark.parametrize(
    "name,realization,fmt",
    [
        ("minf_depth2.dot", "minf", "dot"),
        ("minf_depth2.json", "minf", "json"),
        ("monomial_depth2.dot", "monomial", "dot"),
        ("monomial_depth2.json", "monomial", "json"),
    ],
)
def test_golden_exports(name, realization, fmt):
    graph = bfs(highest_element(realization), 2, realization)
    text = to_dot(graph) if fmt == "dot" else to_json(graph)
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


def test_highest_element_rejects_unknown():
    with pytest.raises(ValueError):
        highest_element("nope")


def test_bfs_rejects_non_injective_lowering_under_optimize():
    """The injectivity check must survive ``python -O``, which strips asserts."""
    script = textwrap.dedent(
        """
        import sys
        from g2crystal.graph import bfs

        if __debug__:
            sys.exit("not running under -O")

        class Clamped:
            # f_2 sends both the root and node 1 to node 2
            def __init__(self, n):
                self.n = n

            def key(self):
                return (self.n,)

            def f(self, i):
                return Clamped(min(self.n + i, 2))

        try:
            bfs(Clamped(0), 2)
        except RuntimeError as exc:
            print(exc)
            sys.exit(0)
        sys.exit("bfs accepted a non-injective operator")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "injective" in proc.stdout
