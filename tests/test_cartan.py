from __future__ import annotations

import random

import pytest

from g2crystal.cartan import (
    CARTAN,
    INDEX_SET,
    PAIR_ZERO,
    pair_add,
    pairing,
    roots_to_weight,
    simple_root,
    weight_to_roots,
)
from g2crystal.graph import highest_element
from g2crystal.isomorphisms import REALIZATIONS


def test_cartan_constants():
    assert CARTAN[(1, 1)] == CARTAN[(2, 2)] == 2
    assert CARTAN[(1, 2)] == -3
    assert CARTAN[(2, 1)] == -1


def test_pairing_fundamental_weights():
    assert pairing(1, (1, 0)) == 1
    assert pairing(2, (1, 0)) == 0
    assert pairing(1, simple_root(2)) == -3
    assert pairing(2, (-5, -1)) == -1


def test_simple_roots_in_weight_coordinates():
    # columns of the Cartan matrix
    assert simple_root(1) == (2, -1)
    assert simple_root(2) == (-3, 2)
    for i in INDEX_SET:
        for j in INDEX_SET:
            assert pairing(i, simple_root(j)) == CARTAN[(i, j)]


def test_weight_to_roots_examples():
    assert weight_to_roots((0, 0)) == (0, 0)
    assert weight_to_roots((2, -1)) == (1, 0)
    assert weight_to_roots((-5, -1)) == (-13, -7)


def test_root_conversion_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        assert weight_to_roots(roots_to_weight(a, b)) == (a, b)
        w = (rng.randint(-30, 30), rng.randint(-30, 30))
        assert roots_to_weight(*weight_to_roots(w)) == w


def test_pair_order_is_total():
    rng = random.Random(11)
    pairs = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(60)]
    for p in pairs:
        for q in pairs:
            assert (p < q) + (p == q) + (p > q) == 1  # trichotomy
            for s in pairs:
                if p < q and q < s:
                    assert p < s  # transitivity


def test_pair_arithmetic():
    assert pair_add((1, -2), (3, 5)) == (4, 3)
    assert pair_add((2, 7), PAIR_ZERO) == (2, 7)


@pytest.mark.parametrize("realization", sorted(REALIZATIONS))
@pytest.mark.parametrize("index", [0, 3, True, 1.0])
def test_index_outside_index_set_rejected(realization, index):
    """Operators and structure maps of every realization take only the ints
    1 and 2; ``True`` and ``1.0`` compare equal to 1 but are rejected."""
    top = highest_element(realization)
    for method in ("f", "e", "eps", "phi"):
        with pytest.raises(ValueError, match="index must be 1 or 2"):
            getattr(top, method)(index)
