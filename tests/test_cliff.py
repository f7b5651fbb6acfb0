from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass, replace

import pytest

from g2crystal.cartan import INDEX_SET, PAIR_ZERO, pair_add, pairing, simple_root, weight_sub
from g2crystal.cliff import _SLOTS, CliffElement, highest_cliff
from g2crystal.graph import bfs

from conftest import EXAMPLE_KS


@dataclass(frozen=True)
class ElementaryElement:
    """Reference: the element ``b_index(k)`` of an elementary crystal; the
    factor-based rule below builds the six factors on every call."""

    index: int
    k: int = 0

    def wt(self):
        a1, a2 = simple_root(self.index)
        return (self.k * a1, self.k * a2)

    def eps(self, i):
        return -self.k if i == self.index else None

    def text(self):
        return f"b{self.index}({self.k})"


def reference_factors(elem):
    return [ElementaryElement(idx, -getattr(elem, name)) for name, idx in _SLOTS]


def reference_a_seq(elem, i):
    out = [0]
    acc = 0
    for factor in reference_factors(elem):
        e = factor.eps(i)
        out.append(None if e is None else e - acc)
        acc += pairing(i, factor.wt())
    return tuple(out)


def reference_wt(elem):
    w = PAIR_ZERO
    for factor in reference_factors(elem):
        w = pair_add(w, factor.wt())
    return w


def reference_text(elem):
    return "u∞ ⊗ " + " ⊗ ".join(f.text() for f in reference_factors(elem))


def reference_op(elem, i, lower):
    """``f``/``e`` through the reference a-values: the slot's new counts,
    ``None`` for raising at the head, and off the crystal ``RuntimeError``
    for lowering the head or the constructor's ``ValueError`` for an image
    off the chain."""
    a = reference_a_seq(elem, i)
    top = max(x for x in a if x is not None)
    pos = len(a) - a[::-1].index(top) if lower else a.index(top) + 1
    if pos == 1:
        if lower:
            raise RuntimeError("the head factor is never lowered on members")
        return None
    ks = list(elem.counts())
    ks[pos - 2] += 1 if lower else -1
    return CliffElement(*ks)


def _outcome(call):
    try:
        return call()
    except (RuntimeError, ValueError) as exc:
        return type(exc)


def a_seq_oracle(elem, i):
    """The closed-form a-values, written out term by term."""
    k12bar, k13bar, k13, k12, k11, k22 = elem.counts()
    if i == 1:
        return (
            0,
            k12bar,
            None,
            k13 + 2 * k12bar - 3 * k13bar,
            None,
            k11 + 2 * k12bar - 3 * k13bar + 2 * k13 - 3 * k12,
            None,
        )
    return (
        0,
        None,
        k13bar - k12bar,
        None,
        k12 - k12bar + 2 * k13bar - k13,
        None,
        k22 - k12bar + 2 * k13bar - k13 + 2 * k12 - k11,
    )


def _random_member(rng):
    k12bar = rng.randint(0, 3)
    k13bar = k12bar + rng.randint(0, 3)
    k13 = 2 * k13bar + rng.randint(0, 5)
    k12 = (k13 + 1) // 2 + rng.randint(0, 3)
    k11 = k12 + rng.randint(0, 3)
    return CliffElement(k12bar, k13bar, k13, k12, k11, rng.randint(0, 4))


def _unchecked(ks):
    """An element with counts ``ks``, made past the constructor, so the rule
    can be read off the crystal too."""
    elem = copy.copy(highest_cliff())
    for (name, _idx), k in zip(_SLOTS, ks):
        object.__setattr__(elem, name, k)
    return elem


def _members_to_depth(depth):
    level = {highest_cliff()}
    seen = set(level)
    for _ in range(depth):
        level = {elem.f(i) for elem in level for i in INDEX_SET} - seen
        seen |= level
    return seen


def assert_matches_reference(elem):
    assert elem.wt() == reference_wt(elem), elem
    assert elem.text() == reference_text(elem), elem
    for i in INDEX_SET:
        a = reference_a_seq(elem, i)
        assert elem.a_seq(i) == a, (elem, i)
        eps = max(x for x in a if x is not None)
        assert elem.eps(i) == eps, (elem, i)
        assert elem.phi(i) == eps + pairing(i, reference_wt(elem)), (elem, i)
        for lower, op in ((True, elem.f), (False, elem.e)):
            got = _outcome(lambda: op(i))
            want = _outcome(lambda: reference_op(elem, i, lower))
            assert got == want, (elem, i, lower)


def test_count_rule_matches_factor_reference_on_members():
    members = _members_to_depth(8)
    assert len(members) == 176
    for elem in members:
        assert_matches_reference(elem)


def test_count_rule_matches_factor_reference_off_the_crystal():
    rng = random.Random(53)
    vectors = [tuple(rng.randint(0, 60) for _ in range(6)) for _ in range(1000)]
    vectors += [tuple(rng.randint(0, 4) for _ in range(6)) for _ in range(1000)]
    members = 0
    for ks in vectors:
        elem = _unchecked(ks)  # members and non-members alike
        members += elem.is_member()
        assert_matches_reference(elem)
    assert 0 < members < len(vectors)


def _grid(members):
    """The count vectors in 0..2 that are members, or those that are not."""
    return [ks for ks in itertools.product(range(3), repeat=6)
            if _unchecked(ks).is_member() == members]


def test_constructor_refuses_non_members_by_name():
    """Every non-member of the 0..2 grid is refused where it is built, with
    the message naming it."""
    outside = _grid(members=False)
    assert len(outside) == 675
    for ks in outside:
        with pytest.raises(ValueError) as exc:
            CliffElement(*ks)
        assert str(exc.value) == f"not in the realization: {_unchecked(ks).text()}", ks


def test_operators_never_raise_on_grid_members():
    """Members never lower the head and never raise a count below zero."""
    members = [CliffElement(*ks) for ks in _grid(members=True)]
    assert len(members) == 54
    for elem in members:
        for i in INDEX_SET:
            assert elem.f(i).is_member(), (elem, i)
            up = elem.e(i)
            assert up is None or up.is_member(), (elem, i)


def test_a_seq_at_the_origin():
    top = highest_cliff()
    assert top.a_seq(1) == (0, 0, None, 0, None, 0, None)
    assert top.a_seq(2) == (0, None, 0, None, 0, None, 0)


def test_a_seq_matches_closed_forms():
    example = CliffElement(*EXAMPLE_KS)
    assert example.a_seq(1) == (0, 1, None, 6, None, 6, None)
    assert example.a_seq(2) == a_seq_oracle(example, 2)
    rng = random.Random(31)
    for _ in range(300):
        elem = _random_member(rng)
        for i in INDEX_SET:
            assert elem.a_seq(i) == a_seq_oracle(elem, i)


def test_lowering_from_highest():
    top = highest_cliff()
    assert top.f(1).counts() == (0, 0, 0, 0, 1, 0)  # rightmost maximum, slot k11
    assert top.f(2).counts() == (0, 0, 0, 0, 0, 1)  # rightmost maximum, slot k22
    assert top.e(1) is None and top.e(2) is None


def test_membership_chain():
    assert highest_cliff().is_member()
    assert CliffElement(*EXAMPLE_KS).is_member()
    assert not _unchecked((2, 1, 0, 0, 0, 0)).is_member()
    assert not _unchecked((0, 1, 1, 2, 3, 0)).is_member()  # 2*k13bar > k13
    with pytest.raises(ValueError, match="^not in the realization: "):
        CliffElement(0, 1, 1, 2, 3, 0)
    # k12 = 3 over k11 = 2 breaks only the last link, 2*k12 <= 2*k11
    assert not _unchecked((0, 0, 0, 3, 2, 0)).is_member()
    with pytest.raises(ValueError, match="^not in the realization: "):
        CliffElement(0, 0, 0, 3, 2, 0)
    with pytest.raises(ValueError):
        CliffElement(-1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="nonnegative integers"):
        CliffElement(k11=1.5)


def test_a_seq_closed_forms_on_enumerated_members():
    frontier = [highest_cliff()]
    seen = {frontier[0]}
    for _ in range(10):
        nxt = []
        for elem in frontier:
            for i in INDEX_SET:
                assert elem.a_seq(i) == a_seq_oracle(elem, i)
                down = elem.f(i)
                if down not in seen:
                    seen.add(down)
                    nxt.append(down)
        frontier = nxt
    assert len(seen) == 372


def test_lowering_cases_match_strengthened_chains():
    """When the rule acts at a given slot, the pre-action counts satisfy the
    correspondingly strengthened inequality chain (so the image is again a
    member)."""
    rng = random.Random(47)
    for _ in range(300):
        c = _random_member(rng)
        for i in INDEX_SET:
            before = c.counts()
            after = c.f(i).counts()
            slot = next(j for j in range(6) if after[j] != before[j])
            k12bar, k13bar, k13, k12, k11, k22 = before
            if i == 1:
                assert slot in (0, 2, 4)
                if slot == 0:
                    assert k12bar + 1 <= k13bar and 2 * k13bar <= k13 <= 2 * k12 <= 2 * k11
                elif slot == 2:
                    assert k12bar <= k13bar and 2 * k13bar <= k13 + 1 and k13 + 1 <= 2 * k12
                else:
                    assert k12bar <= k13bar and 2 * k13bar <= k13 <= 2 * k12 and k12 <= k11 + 1
            else:
                assert slot in (1, 3, 5)
                if slot == 1:
                    assert k12bar <= k13bar + 1 and 2 * (k13bar + 1) <= k13
                elif slot == 3:
                    assert 2 * k13bar <= k13 <= 2 * (k12 + 1) and k12 + 1 <= k11
                else:
                    assert k22 + 1 >= 0


def test_selection_agrees_with_closed_form_argmax():
    rng = random.Random(37)
    for _ in range(300):
        elem = _random_member(rng)
        for i in INDEX_SET:
            oracle = a_seq_oracle(elem, i)
            finite = [a for a in oracle if a is not None]
            top = max(finite)
            f_slot = max(k for k, a in enumerate(oracle) if a == top)
            e_slot = min(k for k, a in enumerate(oracle) if a == top)
            before = elem.counts()
            after = elem.f(i).counts()
            changed = [j for j in range(6) if after[j] != before[j]]
            assert changed == [f_slot - 1]  # slot k acts on factor k-1
            up = elem.e(i)
            if e_slot == 0:
                assert up is None
            else:
                assert up is not None
                changed = [j for j in range(6) if up.counts()[j] != before[j]]
                assert changed == [e_slot - 1]


def _ge(x, y):
    """Weak comparison with ``None`` (minus infinity) below every integer."""
    if x is None:
        return y is None
    return y is None or x >= y


def _gt(x, y):
    if x is None:
        return False
    return y is None or x > y


def pairwise_select(a, lower):
    """The tensor rule by its definition, 1-based: lowering acts at the
    position weakly maximal against every earlier ``a_k`` and strictly
    maximal against every later one; raising at the mirror image."""
    n = len(a)
    hits = []
    for k in range(n):
        if lower:
            before = all(_ge(a[k], a[v]) for v in range(k))
            after = all(_gt(a[k], a[v]) for v in range(k + 1, n))
        else:
            before = all(_gt(a[k], a[v]) for v in range(k))
            after = all(_ge(a[k], a[v]) for v in range(k + 1, n))
        if before and after:
            hits.append(k + 1)
    assert len(hits) == 1, (a, lower, hits)
    return hits[0]


def test_selection_agrees_with_pairwise_definition_off_the_crystal():
    vectors = list(itertools.product(range(4), repeat=6))
    rng = random.Random(41)
    vectors += [tuple(rng.randint(0, 60) for _ in range(6)) for _ in range(2000)]
    for ks in vectors:
        elem = _unchecked(ks)  # members and non-members alike
        for i in INDEX_SET:
            a = elem.a_seq(i)
            for lower in (True, False):
                assert elem._select(i, lower) == pairwise_select(a, lower), (ks, i, lower)


def test_closure_and_involution_to_depth_five():
    frontier = [highest_cliff()]
    seen = {frontier[0]}
    for _ in range(5):
        nxt = []
        for elem in frontier:
            for i in INDEX_SET:
                down = elem.f(i)
                assert down.is_member()
                assert down.e(i) == elem
                assert weight_sub(elem.wt(), down.wt()) == simple_root(i)
                up = elem.e(i)
                if up is not None:
                    assert up.is_member()
                    assert up.f(i) == elem
                if down not in seen:
                    seen.add(down)
                    nxt.append(down)
        frontier = nxt
    assert len(seen) == 45


def test_weight_closed_form():
    rng = random.Random(41)
    for _ in range(200):
        elem = _random_member(rng)
        a = elem.k12bar + elem.k13 + elem.k11
        b = elem.k13bar + elem.k12 + elem.k22
        expected = weight_sub(
            (0, 0),
            (
                a * simple_root(1)[0] + b * simple_root(2)[0],
                a * simple_root(1)[1] + b * simple_root(2)[1],
            ),
        )
        assert elem.wt() == expected


def test_eps_is_max_of_a_seq():
    example = CliffElement(*EXAMPLE_KS)
    assert example.eps(1) == 6 and example.eps(2) == 0
    assert example.phi(1) == example.eps(1) + example.wt()[0]
    assert example.phi(2) == example.eps(2) + example.wt()[1]


def test_text_and_json():
    example = CliffElement(*EXAMPLE_KS)
    assert example.text() == (
        "u∞ ⊗ b1(-1) ⊗ b2(-1) ⊗ b1(-7) "
        "⊗ b2(-4) ⊗ b1(-5) ⊗ b2(-2)"
    )
    assert CliffElement.from_json(example.to_json()) == example


# The ``dataclasses.replace`` bodies of ``f`` and ``e`` that the positional
# constructor calls replaced, kept as the reference.
def _reference_replace_f(self, i):
    pos = self._select(i, lower=True)
    if pos <= 1:
        raise RuntimeError("the tensor rule never lowers the head factor on members")
    name = _SLOTS[pos - 2][0]
    return replace(self, **{name: getattr(self, name) + 1})


def _reference_replace_e(self, i):
    pos = self._select(i, lower=False)
    if pos == 1:
        return None
    name = _SLOTS[pos - 2][0]
    return replace(self, **{name: getattr(self, name) - 1})


def test_positional_construction_matches_replace_reference():
    """Every node of the depth-8 graph, then every member with counts in 0..2."""
    nodes = [elem for elem, _depth in bfs(highest_cliff(), 8, "cliff").nodes.values()]
    assert len(nodes) == 176
    grid = [CliffElement(*ks) for ks in _grid(members=True)]
    assert len(grid) == 54
    for elem in nodes + grid:
        for i in INDEX_SET:
            for op, ref in ((elem.f, _reference_replace_f), (elem.e, _reference_replace_e)):
                assert op(i) == ref(elem, i), (elem, i)
