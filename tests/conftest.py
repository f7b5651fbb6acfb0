"""Shared fixtures: the standard worked example, the known depth-2 slice, and
the reference helpers of the signature-rule oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from g2crystal.monomials import ExtMonomial

# A weight -5L1 - L2 element that exists in all three realizations and
# exercises every count at once.
EXAMPLE_EXPONENTS = {
    (1, -1): (1, 1),
    (1, 1): (0, -5),
    (1, 2): (0, -1),
    (2, -2): (1, -2),
    (2, -1): (0, -1),
    (2, 0): (0, 2),
}
EXAMPLE_COUNTS = (1, 0, 1, 2, 0, 1, 2)  # (b2, b3, b0, b3bar, b2bar, b1bar, b3low)
EXAMPLE_KS = (1, 1, 7, 4, 5, 2)  # (k12bar, k13bar, k13, k12, k11, k22)
EXAMPLE_ROW1 = ["1", "1", "1", "1", "2", "0", "3b", "3b", "1b"]
EXAMPLE_ROW2 = ["2", "3", "3"]

# The full depth-2 slice of the crystal in Y-variable form, keyed by the
# lowering word reaching each element.
DEPTH2_YFORMS = {
    (): {(1, -1): (1, 0), (2, -2): (1, 0)},
    (1,): {(1, -1): (1, -1), (1, 0): (0, -1), (2, -2): (1, 0), (2, -1): (0, 1)},
    (2,): {(1, -1): (1, 3), (2, -2): (1, -1), (2, -1): (0, -1)},
    (1, 1): {(1, -1): (1, -2), (1, 0): (0, -2), (2, -2): (1, 0), (2, -1): (0, 2)},
    (1, 2): {(1, -1): (1, -1), (1, 0): (0, 2), (2, -2): (1, 0), (2, 0): (0, -1)},
    (2, 1): {(1, -1): (1, 2), (1, 0): (0, -1), (2, -2): (1, -1)},
    (2, 2): {(1, -1): (1, 6), (2, -2): (1, -2), (2, -1): (0, -2)},
}

# The same slice as canonical count vectors (b2, b3, b0, b3bar, b2bar, b1bar, b3low).
DEPTH2_COUNTS = {
    (): (0, 0, 0, 0, 0, 0, 0),
    (1,): (1, 0, 0, 0, 0, 0, 0),
    (2,): (0, 0, 0, 0, 0, 0, 1),
    (1, 1): (2, 0, 0, 0, 0, 0, 0),
    (1, 2): (0, 1, 0, 0, 0, 0, 0),
    (2, 1): (1, 0, 0, 0, 0, 0, 1),
    (2, 2): (0, 0, 0, 0, 0, 0, 2),
}


def letter_reduce(word):
    """Letter-level (0,1) cancellation of a word of ``(symbol, tag)`` pairs,
    the reference for the run-length :func:`g2crystal.cartan.reduce_signature`."""
    reduced = []
    for sym in word:
        if sym[0] == 1 and reduced and reduced[-1][0] == 0:
            reduced.pop()
        else:
            reduced.append(sym)
    return reduced


def outcome(call):
    """The value of ``call()``, or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # the type is what is compared
        return type(exc)


def oracle_vectors():
    """Every count vector with b0 in {0, 1} and the other counts in 0..3, then
    2,000 seeded vectors with counts up to 60."""
    for b0 in (0, 1):
        for b2, b3, b3bar, b2bar, b1bar, b3low in itertools.product(range(4), repeat=6):
            yield (b2, b3, b0, b3bar, b2bar, b1bar, b3low)
    rng = random.Random(37)
    for _ in range(2000):
        counts = [rng.randint(0, 60) for _ in range(7)]
        counts[2] = rng.randint(0, 1)
        yield tuple(counts)


@pytest.fixture
def example_monomial():
    return ExtMonomial(EXAMPLE_EXPONENTS)
