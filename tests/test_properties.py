"""Property tests: conversion round trips over every pair of realizations,
the inverse laws of the operators along long words, and arbitrary JSON at
the CLI boundary.

Examples are derandomized with a fixed budget, so the suite is
deterministic and short.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2crystal.cartan import INDEX_SET
from g2crystal.cli import main
from g2crystal.graph import REALIZATIONS, highest_element
from g2crystal.isomorphisms import convert

NAMES = sorted(REALIZATIONS)
OPS = ("f1", "f2", "e1", "e2")

words = st.lists(st.sampled_from(OPS), max_size=10)


def reached(realization, word):
    """The element reached from the highest one by ``word``, skipping the
    raising steps that give the crystal zero."""
    elem = highest_element(realization)
    for token in word:
        moved = getattr(elem, token[0])(int(token[1]))
        if moved is not None:
            elem = moved
    return elem


def structure(elem):
    return (elem.wt(),) + tuple((elem.eps(i), elem.phi(i)) for i in INDEX_SET)


@pytest.mark.parametrize("target", NAMES)
@pytest.mark.parametrize("source", NAMES)
@settings(max_examples=15, derandomize=True, deadline=None)
@given(word=words)
def test_convert_round_trip_preserves_structure(source, target, word):
    elem = reached(source, word)
    image = convert(elem, source, target)
    assert convert(image, target, source) == elem
    assert structure(image) == structure(elem)


@pytest.mark.parametrize("realization", NAMES)
@settings(max_examples=100, derandomize=True, deadline=None)
@given(word=st.lists(st.sampled_from(OPS), max_size=50))
def test_operators_invert_each_other_along_words(realization, word):
    """``e_i f_i = id`` everywhere and ``f_i e_i = id`` wherever ``e_i`` is
    defined, at every element of a walk of up to 50 operators."""
    walk = [highest_element(realization)]
    for token in word:
        moved = getattr(walk[-1], token[0])(int(token[1]))
        walk.append(walk[-1] if moved is None else moved)
    for elem in walk:
        for i in INDEX_SET:
            assert elem.f(i).e(i) == elem
            up = elem.e(i)
            assert up is None or up.f(i) == elem


# Small integers, plus integers around the element-JSON count bound
# (100,000 is accepted, 100,001 is not); the keys mix every known element
# key with arbitrary short text.
KEYS = sorted({"b2", "b3", "b0", "b3bar", "b2bar", "b1bar", "b3low", "p1", "p2", "r",
               "k12bar", "k13bar", "k13", "k12", "k11", "k22", "i", "m", "u", "v"})
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.integers(99_990, 100_001)
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    value=json_values,
    realization=st.sampled_from(NAMES),
    target=st.sampled_from(NAMES),
    word=words.map(" ".join),
)
def test_cli_exits_zero_or_two_on_any_json(value, realization, target, word):
    stdin = json.dumps(value)
    for argv in (
        ["apply", "--realization", realization, "--word", word],
        ["convert", "--from", realization, "--to", target],
    ):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2)
        assert (err.getvalue().count("\n") == 1) == (code == 2)
