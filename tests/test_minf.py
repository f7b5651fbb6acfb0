from __future__ import annotations

import random

import pytest

from g2crystal.cartan import INDEX_SET
from g2crystal.graph import bfs
from g2crystal.minf import (
    MinfElement,
    highest_minf,
    is_minf_monomial,
    minf_from_monomial,
    x_monomial,
)
from g2crystal.monomials import ExtMonomial, highest_monomial

from conftest import DEPTH2_COUNTS, DEPTH2_YFORMS, EXAMPLE_COUNTS


def yform_oracle(b2, b3, b0, b3bar, b2bar, b1bar, b3low, p1=1, p2=1, r=0):
    """Closed-form Y-variable expansion of a count vector, written out
    independently of the X-factor product used by the implementation."""
    body = b2 + b3 + b0 + b3bar + b2bar + b1bar
    return ExtMonomial(
        {
            (1, r - 1): (p1, -body + 3 * b3low),
            (1, r): (0, b0 - b2 + 2 * b3),
            (1, r + 1): (0, -b0 - 2 * b3bar + b2bar),
            (1, r + 2): (0, -b1bar),
            (2, r - 2): (p2, -b3low),
            (2, r - 1): (0, b2 - b3low),
            (2, r): (0, b3bar - b3),
            (2, r + 1): (0, -b2bar),
        }
    )


def _random_vector(rng):
    return MinfElement(
        b2=rng.randint(0, 5),
        b3=rng.randint(0, 5),
        b0=rng.randint(0, 1),
        b3bar=rng.randint(0, 5),
        b2bar=rng.randint(0, 5),
        b1bar=rng.randint(0, 5),
        b3low=rng.randint(0, 5),
        p1=rng.randint(1, 3),
        p2=rng.randint(1, 3),
        r=rng.randint(-3, 3),
    )


def test_x_monomial_expansions():
    assert x_monomial("1", -1, 2, 0) == ExtMonomial({(1, -1): (2, 0)})
    assert x_monomial("3", -1, 0, 1) == ExtMonomial({(1, 0): (0, 2), (2, 0): (0, -1)})
    assert x_monomial("0", -1, 0, 1) == ExtMonomial({(1, 0): (0, 1), (1, 1): (0, -1)})
    assert x_monomial("1b", -1, 0, 1) == ExtMonomial({(1, 2): (0, -1)})


def test_membership():
    assert is_minf_monomial(highest_monomial())
    assert is_minf_monomial(ExtMonomial(DEPTH2_YFORMS[(2,)]))
    # violates the first linear relation
    assert not is_minf_monomial(ExtMonomial({(1, -1): (1, 1), (2, -2): (1, 0)}))
    # wrong pair-extension exponent
    assert not is_minf_monomial(ExtMonomial({(1, -1): (2, 0), (2, -2): (1, 0)}))
    # support outside the allowed window
    stray = ExtMonomial({(1, -1): (1, 0), (2, -2): (1, 0), (1, 4): (0, 1)})
    assert not is_minf_monomial(stray)
    # shifted family membership
    assert is_minf_monomial(
        ExtMonomial({(1, 2): (2, 0), (2, 1): (3, 0)}), p1=2, p2=3, r=3
    )


def test_canonical_vector_from_monomial(example_monomial):
    assert minf_from_monomial(highest_monomial()).counts() == (0,) * 7
    assert minf_from_monomial(example_monomial).counts() == EXAMPLE_COUNTS
    lowered = highest_monomial().f(2)
    assert minf_from_monomial(lowered).counts() == (0, 0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        minf_from_monomial(ExtMonomial({(1, -1): (1, 1), (2, -2): (1, 0)}))


def test_expansion_matches_closed_form():
    assert highest_minf().to_monomial() == highest_monomial()
    rng = random.Random(13)
    for _ in range(300):
        elem = _random_vector(rng)
        assert elem.to_monomial() == yform_oracle(*elem.counts(), *elem.params())


def test_expansion_of_shifted_highest():
    elem = MinfElement(p1=2, p2=3, r=5)
    assert elem.to_monomial() == ExtMonomial({(1, 4): (2, 0), (2, 3): (3, 0)})


def test_round_trips():
    rng = random.Random(17)
    for _ in range(300):
        elem = _random_vector(rng)
        mono = elem.to_monomial()
        assert is_minf_monomial(mono, *elem.params())
        assert minf_from_monomial(mono, *elem.params()) == elem


def test_signatures(example_monomial):
    assert highest_minf().signature(1) == []
    assert highest_minf().signature(2) == []
    elem = minf_from_monomial(example_monomial)
    assert elem.signature(1) == [(1, "1b")] + [(1, "3b")] * 4 + [(1, "0")]
    assert elem.signature(2) == [(0, "3b")]


def test_eps_phi_match_signature_counts():
    rng = random.Random(19)
    for _ in range(200):
        elem = _random_vector(rng)
        for i in INDEX_SET:
            ones = sum(1 for sym, _tag in elem.signature(i) if sym == 1)
            assert elem.eps(i) == ones


def test_operators_on_highest():
    top = highest_minf()
    assert top.f(1).counts() == (1, 0, 0, 0, 0, 0, 0)
    assert top.f(2).counts() == (0, 0, 0, 0, 0, 0, 1)
    assert top.e(1) is None and top.e(2) is None
    assert top.f(2).e(2) == top


def test_depth_two_slice():
    for word, counts in DEPTH2_COUNTS.items():
        elem = highest_minf()
        for i in word:
            elem = elem.f(i)
        assert elem.counts() == counts, f"word {word}"


def test_operator_equivalence_with_generic_rule():
    seen = {highest_minf()}
    frontier = [highest_minf()]
    for _depth in range(6):
        nxt = []
        for elem in frontier:
            mono = elem.to_monomial()
            for i in INDEX_SET:
                down = elem.f(i)
                assert down.to_monomial() == mono.f(i)
                up = elem.e(i)
                generic_up = mono.e(i)
                if up is None:
                    assert generic_up is None
                else:
                    assert up.to_monomial() == generic_up
                if down not in seen:
                    seen.add(down)
                    nxt.append(down)
        frontier = nxt
    assert len(seen) == 74  # cumulative weight multiplicities through depth 6


def test_invalid_vectors_rejected():
    with pytest.raises(ValueError):
        MinfElement(b2=-1)
    with pytest.raises(ValueError):
        MinfElement(b0=2)
    with pytest.raises(ValueError):
        MinfElement(p1=0)


def test_shift_preserves_structure_maps(example_monomial):
    elem = minf_from_monomial(example_monomial)
    moved = elem.with_params(2, 3, 5)
    assert moved.wt() == elem.wt() == (-5, -1)
    for i in INDEX_SET:
        assert moved.eps(i) == elem.eps(i)
        assert moved.phi(i) == elem.phi(i)
    assert moved.with_params(1, 1, 0) == elem


def test_text_form(example_monomial):
    assert highest_minf().text() == "X_1(-1)^(2,0) X_2(-2)^(1,0)"
    elem = minf_from_monomial(example_monomial)
    assert elem.text() == (
        "X_1(-1)^(2,-5) X_2(-1)^(0,1) X_0(-1)^(0,1) X_3b(-1)^(0,2) "
        "X_1b(-1)^(0,1) X_2(-2)^(1,-2) X_3(-2)^(0,2)"
    )


def test_json_round_trip():
    rng = random.Random(23)
    for _ in range(50):
        elem = _random_vector(rng)
        assert MinfElement.from_json(elem.to_json()) == elem


def _assert_maps_match_expansion(elem):
    mono = elem.to_monomial()
    assert elem.wt() == mono.wt(), elem
    for i in INDEX_SET:
        assert elem.eps(i) == mono.eps(i), (elem, i)
        assert elem.phi(i) == mono.phi(i), (elem, i)


@pytest.mark.parametrize("params", [(1, 1, 0), (2, 3, -2), (3, 1, 3)])
def test_closed_form_maps_match_expansion_to_depth_ten(params):
    graph = bfs(highest_minf(*params), 10, "minf")
    for elem, _depth in graph.nodes.values():
        _assert_maps_match_expansion(elem)


def test_closed_form_maps_match_expansion_on_large_counts():
    rng = random.Random(29)
    for _ in range(500):
        _assert_maps_match_expansion(
            MinfElement(
                b2=rng.randint(0, 200),
                b3=rng.randint(0, 200),
                b0=rng.randint(0, 1),
                b3bar=rng.randint(0, 200),
                b2bar=rng.randint(0, 200),
                b1bar=rng.randint(0, 200),
                b3low=rng.randint(0, 200),
                p1=rng.randint(1, 4),
                p2=rng.randint(1, 4),
                r=rng.randint(-5, 5),
            )
        )
