"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines
and timings; every check is exact (zero tolerance) and carries the stated
runtime budget.
"""

from __future__ import annotations

import time
from pathlib import Path

from g2crystal.graph import (
    bfs,
    highest_element,
    to_dot,
    to_json,
    weight_census,
)
from g2crystal.isomorphisms import minf_to_tableau, tableau_to_cliff
from g2crystal.minf import MinfElement, minf_from_monomial
from g2crystal.monomials import ExtMonomial
from g2crystal.tableaux import LETTER_NAMES
from g2crystal.verify import (
    check_bookkeeping,
    check_census,
    check_closure,
    check_iso,
    check_lemma_equivalence,
    check_shift_family,
)

from conftest import (
    CHECK_COUNTS,
    DEPTH2_COUNTS,
    DEPTH2_YFORMS,
    EXAMPLE_EXPONENTS,
    EXAMPLE_KS,
    EXAMPLE_ROW1,
    EXAMPLE_ROW2,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(number, label, started, budget):
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _run_word(root, word):
    elem = root
    for i in word:
        elem = elem.f(i)
    return elem


def test_criterion_1_depth_two_slice_and_goldens():
    started = time.perf_counter()
    graph_y = bfs(highest_element("monomial"), 2, "monomial")
    expected_y = {ExtMonomial(exp).key() for exp in DEPTH2_YFORMS.values()}
    assert set(graph_y.nodes) == expected_y
    graph_x = bfs(highest_element("minf"), 2, "minf")
    expected_x = {MinfElement(*counts).key() for counts in DEPTH2_COUNTS.values()}
    assert set(graph_x.nodes) == expected_x
    for word, counts in DEPTH2_COUNTS.items():
        assert MinfElement(*counts).to_monomial() == ExtMonomial(DEPTH2_YFORMS[word])
    # edge colors agree with the lowering words that generate the slice
    for graph, table, build in (
        (graph_y, DEPTH2_YFORMS, lambda w: _run_word(highest_element("monomial"), w)),
        (graph_x, DEPTH2_COUNTS, lambda w: _run_word(highest_element("minf"), w)),
    ):
        out = graph.out_edges()
        for word in table:
            for prefix_len in range(len(word)):
                src = build(word[:prefix_len])
                dst = build(word[: prefix_len + 1])
                assert out[(src.key(), word[prefix_len])] == dst.key()
    for name, graph, fmt in (
        ("minf_depth2.dot", graph_x, "dot"),
        ("minf_depth2.json", graph_x, "json"),
        ("monomial_depth2.dot", graph_y, "dot"),
        ("monomial_depth2.json", graph_y, "json"),
    ):
        text = to_dot(graph) if fmt == "dot" else to_json(graph)
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), f"golden {name}"
    _report(1, "depth-2 slice and golden exports", started, 1.0)


def test_criterion_2_worked_example_conversions():
    started = time.perf_counter()
    mono = ExtMonomial(EXAMPLE_EXPONENTS)
    vec = minf_from_monomial(mono)
    tab = minf_to_tableau(vec)
    row1, row2 = tab.rows()
    assert [LETTER_NAMES[x] for x in row1] == EXAMPLE_ROW1
    assert [LETTER_NAMES[x] for x in row2] == EXAMPLE_ROW2
    assert tableau_to_cliff(tab).counts() == EXAMPLE_KS
    _report(2, "worked-example conversions", started, 1.0)


def test_criterion_3_realizations_isomorphic_to_depth_ten():
    started = time.perf_counter()
    report = check_iso(10)
    print(report.summary())
    assert report.ok, report.summary()
    assert report.checked == CHECK_COUNTS["iso"]
    assert len(bfs(highest_element("minf"), 10, "minf").nodes) == 372
    _report(3, "depth-10 graph isomorphisms and commutation", started, 30.0)


def test_criterion_4_census_matches_kostant_partitions():
    started = time.perf_counter()
    report = check_census(8)
    print(report.summary())
    assert report.ok, report.summary()
    assert report.checked == CHECK_COUNTS["census"]
    census = weight_census(bfs(highest_element("tableaux"), 8, "tableaux"))
    assert census[(1, 1)] == 2 and census[(2, 1)] == 3
    _report(4, "weight census against the partition oracle", started, 10.0)


def test_criterion_5_signature_rule_equals_generic_rule():
    started = time.perf_counter()
    report = check_lemma_equivalence(10)
    print(report.summary())
    assert report.ok, report.summary()
    assert report.checked == CHECK_COUNTS["lemma-equivalence"]
    _report(5, "signature rule vs generic rule to depth 10", started, 30.0)


def test_criterion_6_bookkeeping_on_random_monomials():
    started = time.perf_counter()
    report = check_bookkeeping(count=10000, seed=20260313)
    print(report.summary())
    assert report.ok, report.summary()
    assert report.checked == CHECK_COUNTS["bookkeeping"]
    _report(6, "structure-map bookkeeping on 10^4 random monomials", started, 30.0)


def test_criterion_7_closure_to_depth_ten():
    started = time.perf_counter()
    report = check_closure(10)
    print(report.summary())
    assert report.ok, report.summary()
    assert report.checked == CHECK_COUNTS["closure"]
    _report(7, "operator closure of all three sets", started, 30.0)


def test_criterion_8_shift_family_to_depth_six():
    started = time.perf_counter()
    report = check_shift_family(6)
    print(report.summary())
    assert report.ok, report.summary()
    assert report.checked == CHECK_COUNTS["shift"]
    _report(8, "shifted-family equivariance", started, 30.0)
