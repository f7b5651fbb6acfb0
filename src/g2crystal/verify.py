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

from .cartan import INDEX_SET, pair_add, pair_neg, pairing, simple_root, weight_sub
from .graph import bfs, highest_element, iso_check, kostant_partitions, weight_census
from .isomorphisms import check_element, tableau_to_cliff, tableau_to_minf
from .minf import MinfElement, highest_minf, is_minf_monomial
from .monomials import _build, highest_monomial

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


def _agree(got, want, image):
    """Whether ``image(got) == want``, the crystal zero ``None`` matching
    only itself."""
    if got is None or want is None:
        return got is want
    return image(got) == want


def _morphism(report, x, *images):
    """Report each structure map on which an image ``(name, y, to)`` is not the
    image of ``x`` under the morphism ``to``: ``y`` keeps ``wt``, ``eps_i`` and
    ``phi_i``, and ``to`` takes ``f_i x``, ``e_i x`` to ``f_i y``, ``e_i y``."""
    wt = x.wt()
    for name, y, _to in images:
        if y.wt() != wt:
            report.fail(f"{name} misses wt at {x.text()}")
    for i in INDEX_SET:
        eps, phi, moves = x.eps(i), x.phi(i), (("f", x.f(i)), ("e", x.e(i)))
        for name, y, to in images:
            if y.eps(i) != eps or y.phi(i) != phi:
                report.fail(f"{name} misses eps_{i}/phi_{i} at {x.text()}")
            for op, moved in moves:
                if not _agree(moved, getattr(y, op)(i), to):
                    report.fail(f"{name} misses {op}_{i} at {x.text()}")


def _inverse_laws(report, realization, x, i, wt):
    """``f_i x`` and ``e_i x``, the laws they break reported: ``e_i f_i x = x``
    with ``f_i`` stepping ``wt``, the weight of ``x``, down by ``alpha_i``,
    and ``f_i e_i x = x``, each where the operator is defined."""
    down, up = x.f(i), x.e(i)
    if down is not None:
        if down.e(i) != x:
            report.fail(f"{realization}: e_{i} f_{i} != id at {x.text()}")
        if weight_sub(wt, down.wt()) != simple_root(i):
            report.fail(f"{realization}: f_{i} weight step wrong at {x.text()}")
    if up is not None and up.f(i) != x:
        report.fail(f"{realization}: f_{i} e_{i} != id at {x.text()}")
    return down, up


def _three_graphs(depth):
    return tuple(bfs(highest_element(name), depth, name) for name in ("minf", "tableaux", "cliff"))


def check_closure(depth):
    """Lowering images stay inside their defining sets; raising images do
    too or are the crystal zero.  Each image's own class judges it: it must be
    one (``check_element``), and it is rebuilt through the constructor."""
    report = SuiteReport(f"closure(depth={depth})")
    for graph in _three_graphs(depth):
        for elem, _depth in graph.nodes.values():
            for i in INDEX_SET:
                for op, move in (("f", elem.f), ("e", elem.e)):
                    report.tick()
                    try:  # a wrong class or a non-member is refused with ValueError
                        img = move(i)
                        if img is not None:
                            check_element(graph.realization, img).cls(**vars(img))
                        why = "is the zero" if img is None and op == "f" else ""
                    except ValueError as exc:
                        why = f"is refused: {exc}"
                    if why:
                        report.fail(f"{graph.realization} {op}_{i} image {why} at {elem.text()}")
    return report


def check_involution(depth):
    """e after f is the identity, f after e where defined, and every
    lowering step drops the weight by one simple root."""
    report = SuiteReport(f"involution(depth={depth})")
    graphs = _three_graphs(depth) + (bfs(highest_monomial(), depth, "monomial"),)
    for graph in graphs:
        for elem, _depth in graph.nodes.values():
            wt = elem.wt()
            for i in INDEX_SET:
                report.tick(2)
                _inverse_laws(report, graph.realization, elem, i, wt)
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
    for tab, _depth in gt.nodes.values():
        report.tick(11)  # wt, then per index eps/phi and the four operator images
        _morphism(report, tab, ("theta", tableau_to_minf(tab), tableau_to_minf),
                  ("tensor map", tableau_to_cliff(tab), tableau_to_cliff))
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
    minf_keys = set()
    for elem, _depth in gm.nodes.values():
        mono = elem.to_monomial()
        minf_keys.add(mono.key())
        report.tick(4)
        _morphism(report, elem, ("to_monomial", mono, MinfElement.to_monomial))
    gy = bfs(highest_monomial(), depth, "monomial")
    report.tick()
    if minf_keys != set(gy.nodes):
        report.fail("signature-rule and generic enumerations differ as sets")
    return report


# The sampler's support positions, in draw order.
_SUPPORT = tuple((i, m) for i in INDEX_SET for m in range(-5, 6))


def random_monomial(rng):
    """A random extended monomial with support in m in [-5, 5] and exponents
    in [-4, 4]^2.  Each position of ``_SUPPORT`` is kept with probability 1/4
    and then draws ``u``, then ``v``, each by the loop ``randint(-4, 4)`` runs
    inside ``random``: ``getrandbits(4)``, drawn again while above 8, minus 4.
    So the monomials and the generator's final state are those of
    ``randint`` for every seed.  The draws feed the builder as entries
    ``(i, m, u, v)`` of ints, so it needs no checks, and it drops a drawn
    zero pair."""
    draw, bits = rng.random, rng.getrandbits
    factors = []
    for i, m in _SUPPORT:
        if draw() < 0.25:
            u = bits(4)
            while u > 8:
                u = bits(4)
            v = bits(4)
            while v > 8:
                v = bits(4)
            factors.append((i, m, u - 4, v - 4))
    return _build({}, factors)


def check_bookkeeping(count=10000, seed=20260313):
    """Structure-map identities on random extended monomials: the pair and
    ordinary weights both equal phi - eps summed over the index set, the
    operators invert each other, and lowering steps down by a simple root."""
    if type(count) is not int or count < 0:
        raise ValueError(f"count must be nonnegative and an int, got {count!r}")
    report = SuiteReport(f"bookkeeping(count={count})")
    rng = random.Random(seed)
    for _ in range(count):
        mono = random_monomial(rng)
        pairs, wt = mono.wt_pairs(), mono.wt()
        for i in INDEX_SET:
            res = mono.scan(i)
            report.tick()
            if pairs[i - 1] != pair_add(res.phi_pair, pair_neg(res.eps_pair)):
                report.fail(f"pair weight bookkeeping fails at {mono.text()} i={i}")
            if mono.phi(i) - mono.eps(i) != pairing(i, wt):
                report.fail(f"weight bookkeeping fails at {mono.text()} i={i}")
            down, up = _inverse_laws(report, "monomial", mono, i, wt)
            if down is not None:
                if res.m_f is None:
                    report.fail(f"no m_f where f_{i} acts at {mono.text()}")
                else:
                    if mono.exponent(i, res.m_f) <= (0, 0):
                        report.fail(f"m_f position not positive at {mono.text()}")
                    if mono.exponent(i, res.m_f + 1) > (0, 0):
                        report.fail(f"exponent after m_f positive at {mono.text()}")
            if up is not None:
                if res.m_e is None:
                    report.fail(f"no m_e where e_{i} acts at {mono.text()}")
                else:
                    if mono.exponent(i, res.m_e + 1) >= (0, 0):
                        report.fail(f"exponent after m_e not negative at {mono.text()}")
                    if mono.exponent(i, res.m_e) < (0, 0):
                        report.fail(f"exponent at m_e negative at {mono.text()}")
    return report


_SHIFT_GRID = tuple(
    (p1, p2, r) for p1 in (1, 2, 3) for p2 in (1, 2, 3) for r in (-2, 0, 3)
)


def check_shift_family(depth):
    """Changing family parameters commutes with the operators, and the
    structure maps computed on the expanded shifted monomials equal the
    closed-form maps of the unshifted element."""
    report = SuiteReport(f"shift-family(depth={depth})")
    gm = bfs(highest_minf(), depth, "minf")
    for elem, _depth in gm.nodes.values():
        wt = elem.wt()
        maps = [(i, elem.eps(i), elem.phi(i), (("f", elem.f(i)), ("e", elem.e(i))))
                for i in INDEX_SET]
        for params in _SHIFT_GRID:
            moved = elem.with_params(*params)
            moved_mono = moved.to_monomial()
            report.tick()
            if not is_minf_monomial(moved_mono, *params):
                report.fail(f"shifted element leaves its family at {elem.text()} {params}")
            if moved_mono.wt() != wt:
                report.fail(f"shift changes weight at {elem.text()} {params}")
            for i, eps, phi, moves in maps:
                if moved_mono.eps(i) != eps or moved_mono.phi(i) != phi:
                    report.fail(f"shift changes eps/phi at {elem.text()} {params}")
                for op, got in moves:
                    want = getattr(moved, op)(i)  # an element is always truthy
                    if not _agree(got, want and want.key(), lambda x: x.counts() + params):
                        report.fail(f"shift misses {op}_{i} at {elem.text()} {params}")
    return report


# The CLI's suites by name; each takes the enumeration depth, which the
# sampled bookkeeping suite ignores.
SUITES = {
    "closure": check_closure,
    "involution": check_involution,
    "iso": check_iso,
    "census": check_census,
    "lemma-equivalence": check_lemma_equivalence,
    "shift": check_shift_family,
    "bookkeeping": lambda _depth: check_bookkeeping(),
}
