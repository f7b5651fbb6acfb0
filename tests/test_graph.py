from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import g2crystal
from g2crystal.cartan import INDEX_SET, POSITIVE_ROOTS
from g2crystal.cliff import CliffElement
from g2crystal.graph import (
    CrystalGraph,
    _element_json,
    _object_template,
    bfs,
    element_from_json,
    highest_element,
    iso_check,
    kostant_partitions,
    to_dot,
    to_json,
    weight_census,
)
from g2crystal.isomorphisms import convert
from g2crystal.minf import MinfElement, highest_minf
from g2crystal.monomials import ExtMonomial, highest_monomial
from g2crystal.tableaux import MLTableau, highest_tableau
from g2crystal.verify import random_monomial

from conftest import DEPTH2_COUNTS, DEPTH2_YFORMS

GOLDEN = Path(__file__).parent / "golden"
REALIZATIONS = ("monomial", "minf", "tableaux", "cliff")


def test_bfs_depth_one():
    graph = bfs(highest_minf(), 1, "minf")
    assert len(graph.nodes) == 3
    assert len(graph.edges) == 2
    assert {i for _s, i, _d in graph.edges} == {1, 2}


def test_bfs_depth_two_matches_known_slice():
    graph = bfs(highest_monomial(), 2, "monomial")
    expected = {ExtMonomial(exp).key() for exp in DEPTH2_YFORMS.values()}
    assert set(graph.nodes) == expected
    assert len(graph.nodes) == 7 and len(graph.edges) == 6
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
    assert len(graph.nodes) == 1 and not graph.edges


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


@pytest.mark.parametrize("depth", [-1, True, False, 2.0, "2", None])
def test_bfs_depth_must_be_a_nonnegative_int(depth):
    with pytest.raises(ValueError, match="must be nonnegative"):
        bfs(highest_minf(), depth, "minf")


@pytest.mark.parametrize(
    ("root", "name", "message"),
    [
        (highest_minf(), "tableaux", "tableaux takes a MLTableau, got MinfElement"),
        (highest_tableau(), "minf", "minf takes a MinfElement, got MLTableau"),
        (highest_monomial(), "cliff", "cliff takes a CliffElement, got ExtMonomial"),
        (highest_minf(), "nope", "unknown realization 'nope'"),
        (highest_minf(), None, "unknown realization None"),
    ],
)
def test_bfs_rejects_a_name_that_does_not_fit_the_root(root, name, message):
    """The name is exported with the graph, so it must be the root's."""
    with pytest.raises(ValueError) as exc:
        bfs(root, 2, name)
    assert str(exc.value) == message


class _DuckRoot:
    """Has the ``key``/``f`` a BFS walk reads, but is no realization's element."""

    def key(self):
        return (0,)

    def f(self, i):
        return None


@pytest.mark.parametrize(
    ("name", "cls"),
    [("monomial", "ExtMonomial"), ("minf", "MinfElement"), ("tableaux", "MLTableau"),
     ("cliff", "CliffElement")],
)
@pytest.mark.parametrize("root", ["x", None, 3, _DuckRoot()])
def test_bfs_rejects_a_root_of_no_realization(root, name, cls):
    """``bfs("x", 1)`` once ended in ``AttributeError``: every root is now
    checked against its named realization before ``key`` or ``f`` is read."""
    with pytest.raises(ValueError) as exc:
        bfs(root, 1, name)
    assert str(exc.value) == f"{name} takes a {cls}, got {type(root).__name__}"


def test_bfs_requires_a_realization_name():
    with pytest.raises(TypeError):
        bfs(highest_minf(), 1)


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
    for a, b in ((-1, 3), (2, -1), (True, 1), (1, True), (2.0, 1), (1, 2.0), (None, 0)):
        with pytest.raises(ValueError, match="must be nonnegative"):
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


def _reference_iso_check(g, h):
    """The queue walk over ``out_edges`` that the single pass over
    ``g.edges`` replaced, kept as the reference."""
    if g.depth != h.depth:
        raise ValueError("graphs must be enumerated to the same depth")
    g_out, h_out = g.out_edges(), h.out_edges()
    if len(g.edges) != len(h.edges):
        return False
    mapping = {g.root: h.root}
    queue = [g.root]
    while queue:
        src = queue.pop()
        for i in INDEX_SET:
            if (src, i) not in g_out:
                continue
            dst = g_out[(src, i)]
            img = h_out.get((mapping[src], i))
            if img is None:
                return False
            if dst in mapping:
                if mapping[dst] != img:
                    return False
            else:
                mapping[dst] = img
                queue.append(dst)
    if len(mapping) != len(g.nodes) or len(set(mapping.values())) != len(h.nodes):
        return False
    return True


def _mutated(graph, kind, rng):
    """A copy of ``graph`` with one edge recoloured, two edge targets
    swapped, or one edge redirected to a random node."""
    edges = list(graph.edges)
    k = rng.randrange(len(edges))
    src, i, dst = edges[k]
    if kind == "recolour":
        edges[k] = (src, 3 - i, dst)
    elif kind == "swap":
        m = rng.randrange(len(edges))
        edges[k], edges[m] = (src, i, edges[m][2]), (edges[m][0], edges[m][1], dst)
    else:
        edges[k] = (src, i, rng.choice(list(graph.nodes)))
    return dataclasses.replace(graph, nodes=dict(graph.nodes), edges=edges)


def _repeats_a_colour(graph):
    """Whether some node has two out-edges of one colour: then ``graph`` is
    no crystal graph, and no map onto one is an isomorphism."""
    return len({(src, i) for src, i, _dst in graph.edges}) < len(graph.edges)


def test_iso_check_matches_queue_reference():
    """Equal results on all 16 ordered pairs of the four depth-7 graphs, and
    on seeded mutations of either graph of each pair.  The one correction:
    ``g.out_edges()`` keeps one of two same-coloured out-edges of a node, so
    the reference can accept a first graph with a recoloured edge."""
    graphs = [bfs(highest_element(name), 7, name) for name in REALIZATIONS]
    rng = random.Random(14)
    rejected = corrected = 0
    for g in graphs:
        for h in graphs:
            assert iso_check(g, h) is _reference_iso_check(g, h) is True
            for kind in ("recolour", "swap", "redirect"):
                for _ in range(6):
                    pair = (_mutated(g, kind, rng), h)
                    for a, b in (pair, pair[::-1]):
                        reference = _reference_iso_check(a, b)
                        expected = reference and not _repeats_a_colour(a)
                        assert iso_check(a, b) is expected, (kind, a.realization, b.realization)
                        rejected += not expected
                        corrected += reference != expected
    assert rejected > 500 and corrected > 0


def test_iso_check_rejects_two_out_edges_of_one_colour():
    """Recolouring a node's 1-edge to 2 where its target also has a 2-edge
    from elsewhere leaves a graph the queue reference calls isomorphic."""
    g = bfs(highest_minf(), 4, "minf")
    h = bfs(highest_minf(), 4, "minf")
    into = {(dst, i) for _src, i, dst in g.edges}
    k = next(k for k, (src, i, dst) in enumerate(g.edges) if i == 1 and (dst, 2) in into)
    src, _i, dst = g.edges[k]
    g.edges[k] = (src, 2, dst)
    assert _reference_iso_check(g, h)
    assert not iso_check(g, h)


def test_iso_check_rejects_an_edge_before_its_source():
    """Out of discovery order, an edge whose source is not yet mapped gives
    ``False``, not :class:`KeyError`."""
    g = bfs(highest_minf(), 3, "minf")
    g.edges.insert(0, g.edges.pop())
    assert not iso_check(g, bfs(highest_minf(), 3, "minf"))


@pytest.mark.parametrize("name", REALIZATIONS)
def test_bfs_lists_each_edge_after_its_source(name):
    """The order ``iso_check`` reads: each edge's source is the root or the
    target of an earlier edge."""
    graph = bfs(highest_element(name), 8, name)
    reached = {graph.root}
    for src, _i, dst in graph.edges:
        assert src in reached
        reached.add(dst)
    assert reached == set(graph.nodes)


@pytest.mark.parametrize("cls", [MinfElement, MLTableau, CliffElement])
def test_count_json_is_the_dataclass_fields(cls):
    """``to_json`` lists every field in declaration order, ``from_json({})``
    is the highest element, and JSON round-trips on the depth-8 graph."""
    name = {MinfElement: "minf", MLTableau: "tableaux", CliffElement: "cliff"}[cls]
    top = highest_element(name)
    assert cls.from_json({}) == top == cls()
    names = [f.name for f in dataclasses.fields(cls)]
    top.to_json()[names[0]] = 5  # a copy: the element does not change
    assert top == cls()
    graph = bfs(top, 8, name)
    for elem, _depth in graph.nodes.values():
        obj = elem.to_json()
        assert list(obj) == names
        assert obj == dict(zip(names, elem.key()))
        assert cls.from_json(obj) == elem
        assert element_from_json(name, obj) == elem


def test_iso_check_depth_mismatch():
    with pytest.raises(ValueError):
        iso_check(bfs(highest_minf(), 2, "minf"), bfs(highest_minf(), 3, "minf"))


@pytest.mark.parametrize("bad", ["x", None, {"nodes": {}, "edges": []}])
def test_graph_functions_refuse_non_graphs(bad):
    graph = bfs(highest_minf(), 1, "minf")
    message = f"expected a CrystalGraph, got {type(bad).__name__}"
    for call in (lambda: iso_check(graph, bad), lambda: iso_check(bad, graph),
                 lambda: weight_census(bad)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def _hand_graph(realization, depth, nodes, edges):
    """A ``CrystalGraph`` built from its parts, rooted at the first node."""
    nodes = {elem.key(): (elem, at) for elem, at in nodes}
    return CrystalGraph(realization, depth, next(iter(nodes)), nodes, list(edges))


def test_iso_check_is_false_on_unequal_edge_counts():
    top = highest_minf()
    down = top.f(1)
    edge = (top.key(), 1, down.key())
    g = _hand_graph("minf", 1, [(top, 0), (down, 1)], [edge])
    h = _hand_graph("minf", 1, [(top, 0), (down, 1)], [])
    assert iso_check(g, h) is False
    assert iso_check(h, g) is False


def test_weight_census_refuses_a_positive_root_coordinate():
    above = ExtMonomial({(1, 0): (0, 1)})  # weight Lambda_1 = 2 alpha_1 + alpha_2
    graph = _hand_graph("monomial", 0, [(above, 0)], [])
    with pytest.raises(RuntimeError) as exc:
        weight_census(graph)
    assert str(exc.value) == "positive root coordinate at Y_1(0)^(0,1)"


def test_weight_census_refuses_a_depth_off_the_weight_height():
    graph = _hand_graph("minf", 2, [(highest_minf(), 0), (highest_minf().f(1), 2)], [])
    with pytest.raises(RuntimeError) as exc:
        weight_census(graph)
    assert str(exc.value) == "depth must equal the weight height"


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


def _reference_payload(graph):
    """The payload the JSON export handed to the stdlib encoder before it was
    written from templates (the export's reference)."""
    keys = sorted(graph.nodes, key=lambda k: (graph.nodes[k][1], k))
    ids = {key: f"n{pos}" for pos, key in enumerate(keys)}
    nodes = []
    for key in keys:
        elem, depth = graph.nodes[key]
        nodes.append(
            {
                "id": ids[key],
                "depth": depth,
                "weight": list(elem.wt()),
                "label": elem.text(),
                "element": elem.to_json(),
            }
        )
    edges = [
        {"source": ids[src], "i": i, "target": ids[dst]}
        for src, i, dst in sorted(graph.edges, key=lambda e: (ids[e[0]], e[1]))
    ]
    return {
        "realization": graph.realization,
        "depth": graph.depth,
        "root": ids[graph.root],
        "nodes": nodes,
        "edges": edges,
    }


@pytest.mark.parametrize("depth", [0, 1, 10])
@pytest.mark.parametrize(
    "realization, root",
    [pytest.param(name, highest_element(name), id=name) for name in REALIZATIONS]
    + [pytest.param("minf", highest_minf(2, 3, -2), id="minf-shifted"),
       pytest.param("monomial", highest_monomial(2, 3, -2), id="monomial-shifted")],
)
def test_json_export_is_the_stdlib_encoding(realization, root, depth):
    """Also from shifted roots, whose JSON holds negative ints, and at depth 10
    multi-digit ones."""
    graph = bfs(root, depth, realization)
    text = to_json(graph)
    assert text == json.dumps(_reference_payload(graph), indent=2) + "\n"
    if depth == 0:
        assert '"edges": []' in text
    if realization == "cliff":
        assert text.isascii() and "u\\u221e \\u2297 b1(0)" in text


@pytest.mark.parametrize("realization", REALIZATIONS)
def test_element_json_fields_are_ints(realization):
    """The export's templates format each field with an unchecked ``%d``, so
    every registry class's ``to_json()`` must hold ints only (no ``bool``):
    checked on the depth-10 ball and, for monomials, on the bookkeeping
    sampler's draws, which the renderer must also print as the stdlib does."""
    graph = bfs(highest_element(realization), 10, realization)
    elems = [elem for elem, _depth in graph.nodes.values()]
    if realization == "monomial":
        rng = random.Random(7)
        elems += [random_monomial(rng) for _ in range(500)]
    for elem in elems:
        obj = elem.to_json()
        records = obj if realization == "monomial" else [obj]
        assert type(records) is list and all(
            type(rec) is dict and all(type(v) is int for v in rec.values()) for rec in records
        ), obj
        assert _element_json(obj, "  ") == json.dumps(obj, indent=2).replace("\n", "\n  ")


@pytest.mark.parametrize(
    "obj",
    [
        pytest.param({}, id="empty-object"),
        pytest.param([], id="empty-list"),
        pytest.param({"b2": 0}, id="zero"),
        pytest.param({"b2": 10**30, "r": 10**30 + 1}, id="huge"),
        pytest.param({"m": -7, "r": -(10**30)}, id="negative"),
        pytest.param({"": 3}, id="empty-key"),
        pytest.param({'u "q" \\ \n %d': 1, "%": 2}, id="escaped-key"),
        pytest.param({"\u221e \u2297": 1, "b2": 0}, id="non-ascii-key"),
        pytest.param([{}], id="list-of-empty-object"),
        pytest.param([{"i": 1, "m": -12, "u": 0, "v": 345}, {"i": 2, "m": 3, "u": -1, "v": 1}],
                     id="list"),
    ],
)
def test_object_template_is_the_stdlib_encoding(obj):
    """Ints of any size and sign, keys that need escaping (``%`` too, as the
    template's own escape), and empty objects and lists, nested or not."""
    for pad in ("", "      "):
        assert _element_json(obj, pad) == json.dumps(obj, indent=2).replace("\n", "\n" + pad)
    if type(obj) is dict:
        assert _object_template(tuple(obj), "") % tuple(obj.values()) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("keys", [(1,), ("b2", None), (b"b2",)])
def test_object_template_refuses_a_non_str_key(keys):
    with pytest.raises(TypeError):
        _object_template(keys, "")


def test_highest_element_rejects_unknown():
    with pytest.raises(ValueError, match="unknown realization"):
        highest_element("nope")
    with pytest.raises(ValueError, match="unknown realization"):
        element_from_json("nope", {})
    with pytest.raises(ValueError, match="unknown realization"):
        convert(highest_minf(), "nope", "minf")
    with pytest.raises(ValueError, match="unknown realization"):
        convert(highest_minf(), "minf", "nope")


def test_an_unhashable_realization_name_is_unknown():
    """A list name once ended in ``TypeError: unhashable type``."""
    for call in (lambda: highest_element(["x"]), lambda: element_from_json(["x"], {}),
                 lambda: bfs(highest_minf(), 1, ["x"]),
                 lambda: convert(highest_minf(), "minf", ["x"])):
        with pytest.raises(ValueError, match=r"^unknown realization \['x'\]$"):
            call()


def test_bfs_rejects_non_injective_lowering_under_optimize():
    """The injectivity check must survive ``python -O``, which strips asserts."""
    script = textwrap.dedent(
        """
        import sys
        from g2crystal.graph import bfs
        from g2crystal.minf import MinfElement, highest_minf

        if __debug__:
            sys.exit("not running under -O")

        top = highest_minf()
        lowered = MinfElement.f

        def clamped(self, i):
            # f_2 sends both the root and f_1(root) to f_2(root)
            if i == 2 and self == lowered(top, 1):
                return lowered(top, 2)
            return lowered(self, i)

        MinfElement.f = clamped

        try:
            bfs(top, 2, "minf")
        except RuntimeError as exc:
            print(exc)
            sys.exit(0)
        sys.exit("bfs accepted a non-injective operator")
        """
    )
    src = str(Path(g2crystal.__file__).parents[1])  # the package under test
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "injective" in proc.stdout
