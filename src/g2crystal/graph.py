"""Crystal-graph enumeration, comparison, census, and export.

BFS works over the four registry classes, and the root is checked against
its named realization (``isomorphisms.check_element``).  Nodes are
deduplicated by canonical key and each level is inserted in key order, so
``graph.nodes`` is the export order (depth, then key) and enumeration and
both export formats are deterministic byte-for-byte.  Edges are kept in
discovery order, so each edge's source is the root or the target of an
earlier edge; :func:`iso_check` reads them in that order.  Every lowering edge
drops the weight by one simple root, hence a node's depth equals the height
``a + b`` of ``-(a*alpha_1 + b*alpha_2)``; the census and the Kostant
partition oracle exploit that.  Each export yields text chunks (header,
nodes, edges) that the CLI writes as they come and ``to_dot``/``to_json``
join; JSON fills fixed templates, byte-identical to the stdlib encoder at
``indent=2``; an element's ``to_json()``, an object or a list of them, fills one
template per object shape, a ``%d`` per field (the constructors refuse non-int
fields).  Names are looked up in :data:`~g2crystal.isomorphisms.REALIZATIONS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from .cartan import INDEX_SET, POSITIVE_ROOTS, weight_to_roots
from .isomorphisms import check_element, get_realization


@dataclass
class CrystalGraph:
    """Rooted digraph with edges colored by the index set."""

    realization: str
    depth: int
    root: tuple
    nodes: dict = field(default_factory=dict)  # key -> (element, depth)
    edges: list = field(default_factory=list)  # (src key, color, dst key), discovery order

    def out_edges(self):
        return {(src, i): dst for src, i, dst in self.edges}


def bfs(root, depth, realization):
    """All elements reachable from ``root`` by lowering words of length <= depth."""
    if type(depth) is not int or depth < 0:
        raise ValueError(f"depth must be nonnegative and an int, got {depth!r}")
    check_element(realization, root)
    root_key = root.key()
    graph = CrystalGraph(realization=realization, depth=depth, root=root_key)
    graph.nodes[root_key] = (root, 0)
    frontier = [(root_key, root)]  # (key, element) in key order: each key is computed once
    incoming = set()
    for level in range(1, depth + 1):
        new = {}
        for key, elem in frontier:
            for i in INDEX_SET:
                child = elem.f(i)
                if child is None:
                    continue
                ck = child.key()
                graph.edges.append((key, i, ck))
                if (i, ck) in incoming:
                    raise RuntimeError("lowering operators must be injective")
                incoming.add((i, ck))
                if ck not in graph.nodes:
                    new.setdefault(ck, child)
        frontier = sorted(new.items(), key=lambda pair: pair[0])
        graph.nodes.update((ck, (child, level)) for ck, child in frontier)
    return graph


def _check_graph(graph):
    if not isinstance(graph, CrystalGraph):
        raise ValueError(f"expected a CrystalGraph, got {type(graph).__name__}")


def iso_check(g, h):
    """Whether the unique root- and color-preserving digraph map between two
    equally deep crystal graphs exists and is a bijection.

    Colored out-edges are deterministic, so the candidate map is forced, and
    one pass over ``g.edges`` in discovery order maps each source first.
    """
    _check_graph(g)
    _check_graph(h)
    if g.depth != h.depth:
        raise ValueError("graphs must be enumerated to the same depth")
    if len(g.edges) != len(h.edges):
        return False
    h_out = h.out_edges()
    mapping = {g.root: h.root}
    for src, i, dst in g.edges:
        img = h_out.get((mapping.get(src), i))
        if img is None or mapping.setdefault(dst, img) != img:
            return False
    return len(mapping) == len(g.nodes) and len(set(mapping.values())) == len(h.nodes)


def weight_census(graph):
    """Node counts per weight, keyed by ``(a, b)`` with wt = -(a alpha_1 + b alpha_2)."""
    _check_graph(graph)
    census = {}
    for key in graph.nodes:
        elem, depth = graph.nodes[key]
        a, b = weight_to_roots(elem.wt())
        if a > 0 or b > 0:
            raise RuntimeError(f"positive root coordinate at {elem.text()}")
        if -(a + b) != depth:
            raise RuntimeError("depth must equal the weight height")
        census[(-a, -b)] = census.get((-a, -b), 0) + 1
    return census


def kostant_partitions(a, b):
    """The number of ways to write ``a*alpha_1 + b*alpha_2`` as a sum of
    positive roots of G2 (the weight multiplicity of the infinity crystal at
    that depth): the coefficient of ``x^a y^b`` in the product of
    ``1 / (1 - x^p y^q)`` over the positive roots ``(p, q)``, from one table."""
    if not (type(a) is type(b) is int) or a < 0 or b < 0:
        raise ValueError(f"root coordinates must be nonnegative and ints, got {(a, b)!r}")
    table = [[0] * (b + 1) for _ in range(a + 1)]
    table[0][0] = 1
    for p, q in POSITIVE_ROOTS:
        for x in range(p, a + 1):
            for y in range(q, b + 1):
                table[x][y] += table[x - p][y - q]
    return table[a][b]


def _numbered(graph):
    """Node ids in ``graph.nodes`` order, and edges as ``(src id, color, dst id)`` sorted
    by source id *string* (``"n10"`` before ``"n2"``), then color: the export digests need it."""
    ids = {key: f"n{pos}" for pos, key in enumerate(graph.nodes)}
    return ids, sorted([(ids[src], i, ids[dst]) for src, i, dst in graph.edges])


def _dot_chunks(graph):
    ids, edges = _numbered(graph)
    yield "digraph crystal {\n  rankdir=TB;\n"
    for key, (elem, _depth) in graph.nodes.items():
        label = elem.text().replace('"', '\\"')
        yield f'  {ids[key]} [label="{label}"];\n'
    for src, i, dst in edges:
        yield f'  {src} -> {dst} [label={i}, style={"solid" if i == 1 else "dashed"}];\n'
    yield "}\n"


def to_dot(graph):
    return "".join(_dot_chunks(graph))


@cache
def _object_template(keys, pad):
    """The stdlib encoding at ``indent=2``, nested at ``pad``, of an object with ``keys`` and
    a ``%d`` per value, which is not checked; a non-str key raises :class:`TypeError`."""
    inner = pad + "  "
    items = [f"{inner}{_quote(k).replace('%', '%%')}: %d" for k in keys]
    return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"


def _element_json(obj, pad):
    """An element's ``to_json()`` as the stdlib encoder prints it at ``indent=2``, at ``pad``."""
    if type(obj) is dict:
        return _object_template(tuple(obj), pad) % tuple(obj.values())
    inner = pad + "  "
    items = [_object_template(tuple(rec), inner) % tuple(rec.values()) for rec in obj]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]" if items else "[]"


def _json_chunks(graph):
    ids, edges = _numbered(graph)
    yield (
        f'{{\n  "realization": {_quote(graph.realization)},\n  "depth": {graph.depth},\n'
        f'  "root": "{ids[graph.root]}",\n  "nodes": ['
    )
    for pos, (key, (elem, depth)) in enumerate(graph.nodes.items()):
        w1, w2 = elem.wt()
        yield (",\n" if pos else "\n") + (
            f'    {{\n      "id": "{ids[key]}",\n      "depth": {depth},\n'
            f'      "weight": [\n        {w1},\n        {w2}\n      ],\n'
            f'      "label": {_quote(elem.text())},\n'
            f'      "element": {_element_json(elem.to_json(), "      ")}\n    }}'
        )
    yield '\n  ],\n  "edges": ['
    for pos, (src, i, dst) in enumerate(edges):
        yield (",\n" if pos else "\n") + (
            f'    {{\n      "source": "{src}",\n      "i": {i},\n'
            f'      "target": "{dst}"\n    }}'
        )
    yield "\n  ]\n}\n" if edges else "]\n}\n"


def to_json(graph):
    return "".join(_json_chunks(graph))


def highest_element(realization):
    return get_realization(realization).highest()


def element_from_json(realization, obj):
    return get_realization(realization).cls.from_json(obj)
