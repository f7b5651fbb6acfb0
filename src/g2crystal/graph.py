"""Crystal-graph enumeration, comparison, census, and export.

BFS works over any element obeying the crystal contract described in
:mod:`~g2crystal.cartan` (``f``/``e``/``wt``/``key``/``text``).  Nodes are
deduplicated by canonical key and the frontier is expanded in sorted key
order, so enumeration and both export formats are deterministic
byte-for-byte.  Every lowering edge drops the weight by one simple root,
hence a node's depth equals the height ``a + b`` of ``-(a*alpha_1 +
b*alpha_2)``; the census and the Kostant partition oracle exploit that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cartan import INDEX_SET, POSITIVE_ROOTS, weight_to_roots
from .cliff import CliffElement, highest_cliff
from .minf import MinfElement, highest_minf
from .monomials import ExtMonomial, highest_monomial
from .tableaux import MLTableau, highest_tableau


@dataclass
class CrystalGraph:
    """Rooted digraph with edges colored by the index set."""

    realization: str
    depth: int
    root: tuple
    nodes: dict = field(default_factory=dict)  # key -> (element, depth)
    edges: list = field(default_factory=list)  # (src key, color, dst key)

    def node_count(self):
        return len(self.nodes)

    def element(self, key):
        return self.nodes[key][0]

    def sorted_keys(self):
        return sorted(self.nodes, key=lambda k: (self.nodes[k][1], k))

    def out_edges(self):
        return {(src, i): dst for src, i, dst in self.edges}


def bfs(root, depth, realization=""):
    """All elements reachable from ``root`` by lowering words of length <= depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    root_key = root.key()
    graph = CrystalGraph(realization=realization, depth=depth, root=root_key)
    graph.nodes[root_key] = (root, 0)
    frontier = [(root_key, root)]  # (key, element): each key is computed once
    incoming = set()
    for level in range(1, depth + 1):
        nxt = []
        for key, elem in sorted(frontier, key=lambda pair: pair[0]):
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
                    graph.nodes[ck] = (child, level)
                    nxt.append((ck, child))
        frontier = nxt
    return graph


def iso_check(g, h):
    """Whether the unique root- and color-preserving digraph map between two
    equally deep crystal graphs exists and is a bijection.

    Colored out-edges are deterministic, so the candidate map is forced by a
    synchronized walk from the roots; no search is involved.
    """
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


def weight_census(graph):
    """Node counts per weight, keyed by ``(a, b)`` with wt = -(a alpha_1 + b alpha_2)."""
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
    if a < 0 or b < 0:
        raise ValueError("root coordinates must be nonnegative")
    table = [[0] * (b + 1) for _ in range(a + 1)]
    table[0][0] = 1
    for p, q in POSITIVE_ROOTS:
        for x in range(p, a + 1):
            for y in range(q, b + 1):
                table[x][y] += table[x - p][y - q]
    return table[a][b]


def _node_ids(keys):
    return {key: f"n{pos}" for pos, key in enumerate(keys)}


def to_dot(graph):
    keys = graph.sorted_keys()
    ids = _node_ids(keys)
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for key in keys:
        elem, _depth = graph.nodes[key]
        label = elem.text().replace('"', '\\"')
        lines.append(f'  {ids[key]} [label="{label}"];')
    for src, i, dst in sorted(graph.edges, key=lambda e: (ids[e[0]], e[1])):
        style = "solid" if i == 1 else "dashed"
        lines.append(f"  {ids[src]} -> {ids[dst]} [label={i}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph):
    keys = graph.sorted_keys()
    ids = _node_ids(keys)
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
    payload = {
        "realization": graph.realization,
        "depth": graph.depth,
        "root": ids[graph.root],
        "nodes": nodes,
        "edges": edges,
    }
    return json.dumps(payload, indent=2) + "\n"


# Realization registry used by the CLI and the verification suites.
REALIZATIONS = {
    "monomial": (highest_monomial, ExtMonomial.from_json),
    "minf": (highest_minf, MinfElement.from_json),
    "tableaux": (highest_tableau, MLTableau.from_json),
    "cliff": (highest_cliff, CliffElement.from_json),
}


def highest_element(realization):
    try:
        factory, _parser = REALIZATIONS[realization]
    except KeyError:
        raise ValueError(f"unknown realization {realization!r}") from None
    return factory()


def element_from_json(realization, obj):
    try:
        _factory, parser = REALIZATIONS[realization]
    except KeyError:
        raise ValueError(f"unknown realization {realization!r}") from None
    return parser(obj)
