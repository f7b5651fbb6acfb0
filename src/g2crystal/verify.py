"""Property suites over enumerated and randomly sampled elements.

Each suite enumerates to a caller-chosen depth (or samples a fixed number
of random monomials), checks an exact property with zero tolerance, and
returns a :class:`SuiteReport` with the number of individual checks
performed and the first few failure descriptions, if any.  The CLI and the
acceptance tests drive these functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cartan import INDEX_SET, pairing, simple_root, weight_sub
from .graph import bfs, iso_check, kostant_partitions, weight_census
from .cliff import highest_cliff
from .isomorphisms import shift_params, tableau_to_cliff, tableau_to_minf
from .minf import highest_minf, is_minf_monomial
from .monomials import ExtMonomial, highest_monomial
from .tableaux import MLTableau, highest_tableau

_MAX_DETAILS = 5


@dataclass
class SuiteReport:
    name: str
    ok: bool = True
    checked: int = 0
    details: list = field(default_factory=list)

    def tick(self, n=1):
        self.checked += n

    def fail(self, message):
        self.ok = False
        if len(self.details) < _MAX_DETAILS:
            self.details.append(message)

    def summary(self):
        status = "pass" if self.ok else "FAIL"
        lines = [f"{self.name}: {status} ({self.checked} checks)"]
        lines += [f"  {d}" for d in self.details]
        return "\n".join(lines)


def _three_graphs(depth):
    return (
        bfs(highest_minf(), depth, "minf"),
        bfs(highest_tableau(), depth, "tableaux"),
        bfs(highest_cliff(), depth, "cliff"),
    )


def check_closure(depth):
    """Lowering images stay inside their defining sets; raising images do
    too or are the crystal zero."""
    report = SuiteReport(f"closure(depth={depth})")
    gm, gt, gc = _three_graphs(depth)
    for key in gm.nodes:
        elem = gm.element(key)
        for i in INDEX_SET:
            img = elem.f(i)
            report.tick()
            if not is_minf_monomial(img.to_monomial(), *img.params()):
                report.fail(f"minf f_{i} image leaves the set at {elem.text()}")
            up = elem.e(i)
            report.tick()
            if up is not None and not is_minf_monomial(up.to_monomial(), *up.params()):
                report.fail(f"minf e_{i} image leaves the set at {elem.text()}")
    for key in gt.nodes:
        tab = gt.element(key)
        for i in INDEX_SET:
            for img in (tab.f(i), tab.e(i)):
                report.tick()
                if img is None:
                    continue
                try:
                    MLTableau.from_rows(*img.rows())
                except ValueError as exc:
                    report.fail(f"tableau image invalid at {tab.text()}: {exc}")
    for key in gc.nodes:
        elem = gc.element(key)
        for i in INDEX_SET:
            for img in (elem.f(i), elem.e(i)):
                report.tick()
                if img is not None and not img.is_member():
                    report.fail(f"cliff image outside the chain at {elem.text()}")
    return report


def check_involution(depth):
    """e after f is the identity, f after e where defined, and every
    lowering step drops the weight by one simple root."""
    report = SuiteReport(f"involution(depth={depth})")
    graphs = _three_graphs(depth) + (bfs(highest_monomial(), depth, "monomial"),)
    for graph in graphs:
        for key in graph.nodes:
            elem = graph.element(key)
            for i in INDEX_SET:
                down = elem.f(i)
                report.tick()
                if down is not None:
                    if down.e(i) != elem:
                        report.fail(f"{graph.realization}: e_{i} f_{i} != id at {elem.text()}")
                    if weight_sub(elem.wt(), down.wt()) != simple_root(i):
                        report.fail(f"{graph.realization}: f_{i} weight step wrong at {elem.text()}")
                up = elem.e(i)
                report.tick()
                if up is not None and up.f(i) != elem:
                    report.fail(f"{graph.realization}: f_{i} e_{i} != id at {elem.text()}")
    return report


def check_iso(depth):
    """The three realization graphs are pairwise isomorphic as rooted
    colored digraphs, and the conversion maps commute with all operators."""
    report = SuiteReport(f"iso(depth={depth})")
    gm, gt, gc = _three_graphs(depth)
    for left, right in ((gm, gt), (gt, gc), (gm, gc)):
        report.tick()
        if not iso_check(left, right):
            report.fail(f"{left.realization} and {right.realization} graphs differ")
    for key in gt.nodes:
        tab = gt.element(key)
        bm, cf = tableau_to_minf(tab), tableau_to_cliff(tab)
        for i in INDEX_SET:
            report.tick(2)
            if tableau_to_minf(tab.f(i)) != bm.f(i):
                report.fail(f"theta misses f_{i} at {tab.text()}")
            if tableau_to_cliff(tab.f(i)) != cf.f(i):
                report.fail(f"tensor map misses f_{i} at {tab.text()}")
            te, be, ce = tab.e(i), bm.e(i), cf.e(i)
            report.tick(2)
            if (te is None) != (be is None) or (
                te is not None and tableau_to_minf(te) != be
            ):
                report.fail(f"theta misses e_{i} at {tab.text()}")
            if (te is None) != (ce is None) or (
                te is not None and tableau_to_cliff(te) != ce
            ):
                report.fail(f"tensor map misses e_{i} at {tab.text()}")
    for key in gt.nodes:
        tab = gt.element(key)
        bm, cf = tableau_to_minf(tab), tableau_to_cliff(tab)
        report.tick()
        if not (tab.wt() == bm.wt() == cf.wt()):
            report.fail(f"weights disagree at {tab.text()}")
        for i in INDEX_SET:
            report.tick()
            if not (tab.eps(i) == bm.eps(i) == cf.eps(i)):
                report.fail(f"eps_{i} disagrees at {tab.text()}")
            if not (tab.phi(i) == bm.phi(i) == cf.phi(i)):
                report.fail(f"phi_{i} disagrees at {tab.text()}")
    return report


def check_census(depth):
    """Node counts per weight match the Kostant partition numbers exactly,
    in every realization, for all heights up to the enumeration depth."""
    report = SuiteReport(f"census(depth={depth})")
    for graph in _three_graphs(depth):
        census = weight_census(graph)
        for a in range(depth + 1):
            for b in range(depth + 1 - a):
                report.tick()
                expected = kostant_partitions(a, b)
                got = census.get((a, b), 0)
                if got != expected:
                    report.fail(
                        f"{graph.realization} count at -({a}a1+{b}a2) is {got}, expected {expected}"
                    )
    return report


def check_lemma_equivalence(depth):
    """The signature-rule operators and the closed-form structure maps agree
    with the generic monomial ones under the change of variables, and the
    two operator rules enumerate the same set."""
    report = SuiteReport(f"lemma-equivalence(depth={depth})")
    gm = bfs(highest_minf(), depth, "minf")
    for key in gm.nodes:
        elem = gm.element(key)
        mono = elem.to_monomial()
        if elem.wt() != mono.wt():
            report.fail(f"weight mismatch at {elem.text()}")
        for i in INDEX_SET:
            report.tick(2)
            if elem.eps(i) != mono.eps(i) or elem.phi(i) != mono.phi(i):
                report.fail(f"eps_{i}/phi_{i} mismatch at {elem.text()}")
            if elem.f(i).to_monomial() != mono.f(i):
                report.fail(f"f_{i} rule mismatch at {elem.text()}")
            up, generic_up = elem.e(i), mono.e(i)
            if (up is None) != (generic_up is None) or (
                up is not None and up.to_monomial() != generic_up
            ):
                report.fail(f"e_{i} rule mismatch at {elem.text()}")
    gy = bfs(highest_monomial(), depth, "monomial")
    report.tick()
    minf_keys = {elem.to_monomial().key() for elem, _d in gm.nodes.values()}
    if minf_keys != set(gy.nodes):
        report.fail("signature-rule and generic enumerations differ as sets")
    return report


def random_monomial(rng, window=5, bound=4):
    """A random extended monomial with support in m in [-window, window]
    and exponents in [-bound, bound]^2."""
    exp = {}
    for i in INDEX_SET:
        for m in range(-window, window + 1):
            if rng.random() < 0.25:
                exp[(i, m)] = (rng.randint(-bound, bound), rng.randint(-bound, bound))
    return ExtMonomial(exp)


def check_bookkeeping(count=10000, seed=20260313):
    """Structure-map identities on random extended monomials: the pair and
    ordinary weights both equal phi - eps summed over the index set, the
    operators invert each other, and lowering steps down by a simple root."""
    report = SuiteReport(f"bookkeeping(count={count})")
    rng = random.Random(seed)
    for _ in range(count):
        mono = random_monomial(rng)
        pairs = mono.wt_pairs()
        for i in INDEX_SET:
            res = mono.scan(i)
            report.tick()
            expected = (
                res.phi_pair[0] - res.eps_pair[0],
                res.phi_pair[1] - res.eps_pair[1],
            )
            if pairs[i - 1] != expected:
                report.fail(f"pair weight bookkeeping fails at {mono.text()} i={i}")
            if mono.phi(i) - mono.eps(i) != pairing(i, mono.wt()):
                report.fail(f"weight bookkeeping fails at {mono.text()} i={i}")
            down = mono.f(i)
            if down is not None:
                if down.e(i) != mono:
                    report.fail(f"e_{i} f_{i} != id at {mono.text()}")
                if weight_sub(mono.wt(), down.wt()) != simple_root(i):
                    report.fail(f"f_{i} weight step wrong at {mono.text()}")
                if res.m_f is None or mono.exponent(i, res.m_f) <= (0, 0):
                    report.fail(f"m_f position not positive at {mono.text()}")
                if mono.exponent(i, res.m_f + 1) > (0, 0):
                    report.fail(f"exponent after m_f positive at {mono.text()}")
            up = mono.e(i)
            if up is not None:
                if up.f(i) != mono:
                    report.fail(f"f_{i} e_{i} != id at {mono.text()}")
                if mono.exponent(i, res.m_e + 1) >= (0, 0):
                    report.fail(f"exponent after m_e not negative at {mono.text()}")
                if mono.exponent(i, res.m_e) < (0, 0):
                    report.fail(f"exponent at m_e negative at {mono.text()}")
    return report


_SHIFT_GRID = tuple(
    (p1, p2, r) for p1 in (1, 2, 3) for p2 in (1, 2, 3) for r in (-2, 0, 3)
)


def check_shift_family(depth, grid=_SHIFT_GRID):
    """Changing family parameters commutes with the operators, and the
    structure maps computed on the expanded shifted monomials equal the
    closed-form maps of the unshifted element."""
    report = SuiteReport(f"shift-family(depth={depth})")
    gm = bfs(highest_minf(), depth, "minf")
    for key in gm.nodes:
        elem = gm.element(key)
        for params in grid:
            moved = shift_params(elem, *params)
            moved_mono = moved.to_monomial()
            report.tick()
            if not is_minf_monomial(moved_mono, *params):
                report.fail(f"shifted element leaves its family at {elem.text()} {params}")
            if moved_mono.wt() != elem.wt():
                report.fail(f"shift changes weight at {elem.text()} {params}")
            for i in INDEX_SET:
                if moved_mono.eps(i) != elem.eps(i) or moved_mono.phi(i) != elem.phi(i):
                    report.fail(f"shift changes eps/phi at {elem.text()} {params}")
                if shift_params(elem.f(i), *params) != moved.f(i):
                    report.fail(f"shift misses f_{i} at {elem.text()} {params}")
                up, moved_up = elem.e(i), moved.e(i)
                if (up is None) != (moved_up is None) or (
                    up is not None and shift_params(up, *params) != moved_up
                ):
                    report.fail(f"shift misses e_{i} at {elem.text()} {params}")
    return report


SUITES = {
    "closure": check_closure,
    "involution": check_involution,
    "iso": check_iso,
    "census": check_census,
    "lemma-equivalence": check_lemma_equivalence,
}
