from __future__ import annotations

import random
from fractions import Fraction

import pytest

from g2crystal.cartan import INDEX_SET
from g2crystal.cliff import CliffElement, highest_cliff
from g2crystal.graph import bfs
from g2crystal.isomorphisms import (
    cliff_to_minf,
    cliff_to_tableau,
    convert,
    minf_to_cliff,
    minf_to_tableau,
    shift_params,
    tableau_to_cliff,
    tableau_to_minf,
)
from g2crystal.minf import MinfElement, highest_minf, minf_from_monomial
from g2crystal.monomials import ExtMonomial
from g2crystal.tableaux import MLTableau, highest_tableau

from conftest import EXAMPLE_COUNTS, EXAMPLE_KS


def test_count_copy_maps(example_monomial):
    assert tableau_to_minf(highest_tableau()) == highest_minf()
    assert minf_to_tableau(highest_minf()) == highest_tableau()
    example = MLTableau(*EXAMPLE_COUNTS)
    assert tableau_to_minf(example) == minf_from_monomial(example_monomial)
    assert tableau_to_minf(highest_tableau().f(2)).counts() == (0, 0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        minf_to_tableau(MinfElement(p1=2))


def test_tableau_to_cliff_examples():
    assert tableau_to_cliff(highest_tableau()) == highest_cliff()
    assert tableau_to_cliff(MLTableau(*EXAMPLE_COUNTS)).counts() == EXAMPLE_KS
    assert tableau_to_cliff(highest_tableau().f(1)).counts() == (0, 0, 0, 0, 1, 0)


def test_cliff_to_tableau_examples():
    assert cliff_to_tableau(highest_cliff()) == highest_tableau()
    assert cliff_to_tableau(CliffElement(*EXAMPLE_KS)).counts() == EXAMPLE_COUNTS
    assert cliff_to_tableau(CliffElement(0, 0, 1, 1, 1, 0)).counts() == (
        0, 0, 1, 0, 0, 0, 0,
    )
    assert tableau_to_cliff(MLTableau(0, 0, 1, 0, 0, 0, 0)).counts() == (0, 0, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        cliff_to_tableau(CliffElement(2, 1, 0, 0, 0, 0))


def test_cliff_to_tableau_matches_floor_expressions():
    """The integer arithmetic agrees with the rational floor formulas for
    the middle counts (and the halved difference fixes the count of 0s)."""
    rng = random.Random(43)
    for _ in range(300):
        tab = cliff_to_tableau_random(rng)
        c = tableau_to_cliff(tab)
        half = Fraction(c.k13, 2)
        A = Fraction(c.k12) - half
        B = half - c.k13bar
        got = cliff_to_tableau(c)
        assert got.b3bar == _floor(B)
        assert got.b0 == (A + B) - (_floor(A) + _floor(B))
        assert got.b3 == _floor(A)
        assert got == tab


def _floor(x):
    return x.numerator // x.denominator if isinstance(x, Fraction) else x


def cliff_to_tableau_random(rng):
    return MLTableau(
        rng.randint(0, 4),
        rng.randint(0, 4),
        rng.randint(0, 1),
        rng.randint(0, 4),
        rng.randint(0, 4),
        rng.randint(0, 4),
        rng.randint(0, 4),
    )


def test_maps_are_mutually_inverse():
    graph = bfs(highest_tableau(), 6, "tableaux")
    for key in graph.nodes:
        tab = graph.nodes[key][0]
        assert minf_to_tableau(tableau_to_minf(tab)) == tab
        assert cliff_to_tableau(tableau_to_cliff(tab)) == tab
        assert cliff_to_minf(minf_to_cliff(tableau_to_minf(tab))) == tableau_to_minf(tab)


def test_operator_commutation_to_depth_six():
    graph = bfs(highest_tableau(), 6, "tableaux")
    for key in graph.nodes:
        tab = graph.nodes[key][0]
        vec, ks = tableau_to_minf(tab), tableau_to_cliff(tab)
        for i in INDEX_SET:
            assert tableau_to_minf(tab.f(i)) == vec.f(i)
            assert tableau_to_cliff(tab.f(i)) == ks.f(i)
            up = tab.e(i)
            if up is None:
                assert vec.e(i) is None and ks.e(i) is None
            else:
                assert tableau_to_minf(up) == vec.e(i)
                assert tableau_to_cliff(up) == ks.e(i)


def test_structure_map_transport():
    graph = bfs(highest_tableau(), 6, "tableaux")
    for key in graph.nodes:
        tab = graph.nodes[key][0]
        vec, ks = tableau_to_minf(tab), tableau_to_cliff(tab)
        assert tab.wt() == vec.wt() == ks.wt()
        for i in INDEX_SET:
            assert tab.eps(i) == vec.eps(i) == ks.eps(i)
            assert tab.phi(i) == vec.phi(i) == ks.phi(i)


def test_shift_isomorphism(example_monomial):
    top = highest_minf()
    moved = shift_params(top, 2, 3, -1)
    assert moved.counts() == top.counts() and moved.params() == (2, 3, -1)
    assert shift_params(moved, 1, 1, 0) == top
    example = minf_from_monomial(example_monomial)
    assert shift_params(example, 2, 3, 5).wt() == (-5, -1)
    with pytest.raises(ValueError, match="^minf takes a MinfElement, got MLTableau$"):
        shift_params(highest_tableau(), 1, 1, 0)  # once an AttributeError


@pytest.mark.parametrize(
    "elem, source",
    [(MinfElement(b2=1, p1=2), "tableaux"), (MLTableau(), "minf"), (ExtMonomial(), "cliff")],
    ids=["minf-as-tableaux", "tableau-as-minf", "monomial-as-cliff"],
)
def test_convert_rejects_an_element_of_the_wrong_class(elem, source):
    """No silent coercion and no ``AttributeError``: the source's class is checked."""
    for target in ("minf", "tableaux", "cliff", "monomial"):
        with pytest.raises(ValueError, match=f"^{source} takes a "):
            convert(elem, source, target)


@pytest.mark.parametrize(
    "convert_map, elem",
    [(tableau_to_cliff, MinfElement(p1=2)), (tableau_to_minf, MinfElement(p1=2)),
     (minf_to_tableau, MLTableau()), (cliff_to_tableau, "x"), (minf_to_cliff, highest_cliff()),
     (cliff_to_minf, highest_tableau()), (tableau_to_cliff, highest_cliff())],
    ids=lambda x: getattr(x, "__name__", type(x).__name__),
)
def test_count_maps_reject_an_element_of_the_wrong_class(convert_map, elem):
    """No answer for a family without tableaux, no dropped parameters and no
    ``AttributeError``: each map checks its argument's class."""
    with pytest.raises(ValueError, match=" takes a "):
        convert_map(elem)


@pytest.mark.parametrize(
    "mono",
    [ExtMonomial(), ExtMonomial({(1, 0): (1, 0)}), ExtMonomial({(1, -1): (1, 1), (2, -2): (1, 0)}),
     ExtMonomial({(1, 2): (2, 0), (2, 3): (1, 0)})],
    ids=["empty", "u-totals-1-0", "relation-broken", "u-pattern-broken"],
)
def test_monomial_non_members_get_the_family_free_message(mono):
    """Parameters that name no family and a non-member of the family named
    get the same message: a member of any family names its own."""
    for target in ("minf", "tableaux", "cliff", "monomial"):
        with pytest.raises(ValueError) as exc:
            convert(mono, "monomial", target)
        assert str(exc.value) == f"not a member of any M(p1,p2;r;infinity): {mono.text()}"
