"""Span tracer for the traced benchmark run; untraced runs never import it.

:meth:`Tracer.install` wraps, from outside the program, the module
boundaries of every ``g2crystal`` layer listed in :data:`LAYERS`: the public
functions, the crystal-contract methods and the named internals
(``scan``, ``signature``, ``to_monomial``, ``from_rows``, monomial
construction and product).  Small accessors (``exponent``, ``counts``,
``rows``, ``a_seq``, ...) stay unwrapped, so their cost lands in the self
time of the boundary that calls them.  Every reference to a wrapped
function held by any ``g2crystal`` module, directly or as a dict value, is
rebound, so calls between modules are traced too.

Each call records a span (name, start, end, parent) in flat in-memory
arrays; :meth:`Tracer.write` dumps them when the run ends.  A span's self
time is its duration minus the durations of its child spans.  Spans of
the benchmark's own checks (:meth:`Tracer.exclude`) and every span under
them are recorded but left out of the metrics, so these count only the
timed program.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# module -> [(qualified name, span name)]; the span name is the layer metric prefix.
LAYERS = {
    "monomials": [
        ("ExtMonomial.__init__", "monomials.construct"),
        ("ExtMonomial.__mul__", "monomials.mul"),
        ("ExtMonomial.inverse", "monomials.inverse"),
        ("ExtMonomial.scan", "monomials.scan"),
        ("ExtMonomial.f", "monomials.op"),
        ("ExtMonomial.e", "monomials.op"),
        ("ExtMonomial.wt_pairs", "monomials.structure"),
        ("ExtMonomial.wt", "monomials.structure"),
        ("ExtMonomial.eps", "monomials.structure"),
        ("ExtMonomial.phi", "monomials.structure"),
        ("ExtMonomial.eps_pair", "monomials.structure"),
        ("ExtMonomial.phi_pair", "monomials.structure"),
        ("ExtMonomial.key", "monomials.key"),
        ("ExtMonomial.text", "monomials.text"),
        ("ExtMonomial.to_json", "monomials.to_json"),
        ("a_monomial", "monomials.a_monomial"),
        ("highest_monomial", "monomials.highest"),
        ("classify_seed", "monomials.classify_seed"),
    ],
    "minf": [
        ("MinfElement.f", "minf.op"),
        ("MinfElement.e", "minf.op"),
        ("MinfElement.signature", "minf.signature"),
        ("MinfElement.wt", "minf.structure"),
        ("MinfElement.eps", "minf.structure"),
        ("MinfElement.phi", "minf.structure"),
        ("MinfElement.to_monomial", "minf.to_monomial"),
        ("MinfElement.with_params", "minf.with_params"),
        ("MinfElement.key", "minf.key"),
        ("MinfElement.text", "minf.text"),
        ("MinfElement.to_json", "minf.to_json"),
        ("x_monomial", "minf.x_monomial"),
        ("highest_minf", "minf.highest"),
        ("is_minf_monomial", "minf.is_minf_monomial"),
        ("minf_from_monomial", "minf.from_monomial"),
    ],
    "tableaux": [
        ("MLTableau.f", "tableaux.op"),
        ("MLTableau.e", "tableaux.op"),
        ("MLTableau.signature", "tableaux.signature"),
        ("MLTableau.from_rows", "tableaux.from_rows"),
        ("MLTableau.wt", "tableaux.structure"),
        ("MLTableau.eps", "tableaux.structure"),
        ("MLTableau.phi", "tableaux.structure"),
        ("MLTableau.key", "tableaux.key"),
        ("MLTableau.text", "tableaux.text"),
        ("MLTableau.to_json", "tableaux.to_json"),
        ("highest_tableau", "tableaux.highest"),
    ],
    "cliff": [
        ("CliffElement.f", "cliff.op"),
        ("CliffElement.e", "cliff.op"),
        ("CliffElement.wt", "cliff.structure"),
        ("CliffElement.eps", "cliff.structure"),
        ("CliffElement.phi", "cliff.structure"),
        ("CliffElement.is_member", "cliff.is_member"),
        ("CliffElement.key", "cliff.key"),
        ("CliffElement.text", "cliff.text"),
        ("CliffElement.to_json", "cliff.to_json"),
        ("highest_cliff", "cliff.highest"),
    ],
    "isomorphisms": [
        (name, "isomorphisms.convert")
        for name in ("tableau_to_minf", "minf_to_tableau", "tableau_to_cliff", "cliff_to_tableau",
                     "minf_to_cliff", "cliff_to_minf", "shift_params")
    ],
    "graph": [
        ("bfs", "graph.bfs"),
        ("to_json", "graph.to_json"),
        ("to_dot", "graph.to_dot"),
        ("kostant_partitions", "graph.kostant"),
        ("iso_check", "graph.iso_check"),
        ("weight_census", "graph.census"),
        ("highest_element", "graph.highest_element"),
        ("element_from_json", "graph.element_from_json"),
    ],
    "verify": [
        ("check_iso", "verify.iso"),
        ("check_census", "verify.census"),
        ("check_lemma_equivalence", "verify.lemma-equivalence"),
        ("check_closure", "verify.closure"),
        ("check_involution", "verify.involution"),
        ("check_bookkeeping", "verify.bookkeeping"),
        ("check_shift_family", "verify.shift"),
        ("random_monomial", "verify.random_monomial"),
    ],
    "cli": [
        (name, "cli.main")
        for name in ("main", "build_parser", "cmd_graph", "cmd_apply", "cmd_convert", "cmd_verify")
    ],
}

ORACLE = "bench.oracle"

SUITE_SPANS = ("iso", "census", "lemma-equivalence", "closure", "involution", "bookkeeping", "shift")

# Per-layer metrics read from the spans: (metric, span name, "calls" | "self_s").
SPAN_METRICS = [
    (f"{span}.{kind}", span, kind)
    for span, kinds in (
        ("minf.structure", ("calls", "self_s")),
        ("minf.to_monomial", ("calls", "self_s")),
        ("minf.op", ("calls", "self_s")),
        ("minf.signature", ("self_s",)),
        ("monomials.scan", ("calls", "self_s")),
        ("monomials.construct", ("calls", "self_s")),
        ("monomials.mul", ("self_s",)),
        ("monomials.op", ("calls", "self_s")),
        ("tableaux.op", ("calls", "self_s")),
        ("tableaux.signature", ("self_s",)),
        ("tableaux.from_rows", ("self_s",)),
        ("tableaux.structure", ("self_s",)),
        ("cliff.op", ("calls", "self_s")),
        ("cliff.structure", ("self_s",)),
        ("isomorphisms.convert", ("calls", "self_s")),
        ("graph.bfs", ("self_s",)),
        ("graph.to_json", ("self_s",)),
        ("graph.to_dot", ("self_s",)),
        ("graph.kostant", ("calls", "self_s")),
        ("graph.iso_check", ("self_s",)),
        ("graph.census", ("self_s",)),
        ("cli.main", ("self_s",)),
    )
    for kind in kinds
] + [(f"verify.{suite}.self_s", f"verify.{suite}", "self_s") for suite in SUITE_SPANS]

# Counters filled from wrapped calls' results: metric -> unit.
COUNTERS = {
    "graph.bfs.nodes": "count",
    "graph.bfs.edges": "count",
    "graph.export.bytes": "B",
    **{f"verify.{suite}.checks": "count" for suite in SUITE_SPANS},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name):
        """``fn`` recording one span named ``name`` per call."""
        name_id = self._name_id(name)
        stack, span_name, parent = self._stack, self.span_name, self.parent
        start, end, clock = self.start, self.end, time.perf_counter_ns
        count = self._counter(name)

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(result)
            return result

        return traced

    def exclude(self, fn):
        """``fn`` with its calls, and all calls made under them, left out of
        the metrics: for the benchmark's checks, which are not timed."""
        return self.wrap(fn, ORACLE)

    def _counter(self, name):
        counters = self.counters
        if name == "graph.bfs":
            def count(graph):
                counters["graph.bfs.nodes"] += len(graph.nodes)
                counters["graph.bfs.edges"] += len(graph.edges)
            return count
        if name in ("graph.to_json", "graph.to_dot"):
            def count(text):
                counters["graph.export.bytes"] += len(text.encode("utf-8"))
            return count
        if name.startswith("verify.") and name[len("verify."):] in SUITE_SPANS:
            key = f"{name}.checks"

            def count(report):
                counters[key] += report.checked
            return count
        return None

    def install(self):
        """Wrap every boundary in :data:`LAYERS` and rebind all references."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "g2crystal" or name.startswith("g2crystal.")}
        replaced = {}
        for module_name, targets in LAYERS.items():
            module = modules[f"g2crystal.{module_name}"]
            for qualname, span in targets:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(self.wrap(raw.__func__, span)))
                    else:
                        setattr(owner, attr, self.wrap(raw, span))
                else:
                    fn = getattr(module, attr)
                    replaced[id(fn)] = (fn, self.wrap(fn, span))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, attr, replaced[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced and replaced[id(item)][0] is item:
                            value[key] = replaced[id(item)][1]

    def span_totals(self):
        """Per span name: ``(calls, self ns)`` over the spans not excluded,
        their number, and the number of ``key()`` calls made directly by
        ``bfs``."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        excluded = bytearray(n)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        oracle_id = self.names.index(ORACLE) if ORACLE in self.names else -1
        # a span's parent starts before it, so has the lower index
        for idx in range(n):
            p = parent[idx]
            if p >= 0 and excluded[p]:
                excluded[idx] = 1
                continue
            if p >= 0:
                child[p] += end[idx] - start[idx]
            if span_name[idx] == oracle_id:
                excluded[idx] = 1
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        key_ids = {i for i, name in enumerate(self.names) if name.endswith(".key")}
        bfs_id = self.names.index("graph.bfs") if "graph.bfs" in self.names else -1
        bfs_key_calls = 0
        for idx in range(n):
            if excluded[idx]:
                continue
            nid = span_name[idx]
            calls[nid] += 1
            self_ns[nid] += end[idx] - start[idx] - child[idx]
            if nid in key_ids and parent[idx] >= 0 and span_name[parent[idx]] == bfs_id:
                bfs_key_calls += 1
        totals = {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}
        return totals, n - sum(excluded), bfs_key_calls

    def metrics(self):
        """Per-layer metrics as ``{name: (value, unit)}``."""
        totals, spans, bfs_key_calls = self.span_totals()
        out = {}
        for metric, span, kind in SPAN_METRICS:
            calls, self_ns = totals.get(span, (0, 0))
            out[metric] = (calls, "count") if kind == "calls" else (self_ns / 1e9, "s")
        for metric, unit in COUNTERS.items():
            out[metric] = (self.counters[metric], unit)
        nodes, edges = self.counters["graph.bfs.nodes"], self.counters["graph.bfs.edges"]
        bfs_calls = totals.get("graph.bfs", (0, 0))[0]
        # every child is generated once per edge; a new node is one more than the roots
        out["graph.bfs.key_calls_per_edge"] = (bfs_key_calls / edges if edges else 0.0, "ratio")
        out["graph.bfs.new_node_frac"] = ((nodes - bfs_calls) / edges if edges else 0.0, "ratio")
        out["trace.spans"] = (spans, "count")
        return out

    def write(self, path):
        """Dump the spans: one JSON header line, then the four arrays
        (span name id, parent index, start ns, end ns) in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["span_name:i", "parent:i", "start_ns:q", "end_ns:q"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
