from __future__ import annotations

import random

import pytest

from g2crystal.cartan import (
    CARTAN,
    INDEX_SET,
    PAIR_ZERO,
    POSITIVE_ROOTS,
    CountVector,
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


# The root each count of ``CountVector`` lowers the weight by, in field order.
COUNT_ROOTS = ((1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (0, 1))


def test_count_weight_lowers_by_a_positive_root_per_count():
    """``CountVector.wt`` is minus the sum of the roots its docstring names:
    the six positive roots, one per count, and b1bar's twice b0's, so with
    b0 <= 1 the count vectors of a weight are its Kostant partitions."""
    b1bar = COUNT_ROOTS[5]
    assert sorted(set(COUNT_ROOTS) - {b1bar}) == sorted(POSITIVE_ROOTS)
    assert b1bar == (2 * COUNT_ROOTS[2][0], 2 * COUNT_ROOTS[2][1])
    rng = random.Random(7)
    for _ in range(500):
        counts = [rng.randint(0, 50) for _ in range(6)]
        counts.insert(2, rng.randint(0, 1))
        a = sum(n * root[0] for n, root in zip(counts, COUNT_ROOTS))
        b = sum(n * root[1] for n, root in zip(counts, COUNT_ROOTS))
        assert CountVector(*counts).wt() == roots_to_weight(-a, -b)


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


@pytest.mark.parametrize("index", [0, 3, True, 1.0])
def test_pairing_and_simple_root_take_only_the_index_set(index):
    """``pairing(0, w)`` once read ``w[-1]`` and ``True`` read index 1."""
    with pytest.raises(ValueError, match="index must be 1 or 2"):
        pairing(index, (1, 2))
    with pytest.raises(ValueError, match="index must be 1 or 2"):
        simple_root(index)


@pytest.mark.parametrize(
    ("i", "weight"), [(1, (1, 2, 3)), (1, "ab"), (2, (5,)), (1, (1.0, 2)), (1, (True, 0))]
)
def test_pairing_takes_only_a_weight_of_two_ints(i, weight):
    """These once read 1, ``'a'`` and an ``IndexError``, and let a float or a
    bool through; ``weight_to_roots`` read ``"ab"`` as ``('aabbb', 'abb')``."""
    for call in (lambda: pairing(i, weight), lambda: weight_to_roots(weight)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"weight must be two ints, got {weight!r}"


@pytest.mark.parametrize(("a", "b"), [(1.5, 2), (True, 0), (0, False), (2, "1")])
def test_roots_to_weight_takes_only_ints(a, b):
    """``(1.5, 2)`` once read ``(-3.0, 2.5)``."""
    with pytest.raises(ValueError) as exc:
        roots_to_weight(a, b)
    assert str(exc.value) == f"root coordinates must be ints, got {(a, b)!r}"
