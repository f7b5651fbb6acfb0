from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from g2crystal.cartan import INDEX_SET
from g2crystal.graph import bfs
from g2crystal.minf import (
    _SLOT,
    _member_counts,
    MinfElement,
    highest_minf,
    is_minf_monomial,
    minf_from_monomial,
    x_monomial,
)
from g2crystal.monomials import ExtMonomial, classify_seed, highest_monomial
from g2crystal.verify import _SHIFT_GRID, random_monomial

from conftest import (
    DEPTH2_COUNTS,
    DEPTH2_YFORMS,
    EXAMPLE_COUNTS,
    letter_reduce,
    oracle_vectors,
    outcome,
)


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


def _letters(runs):
    """A reduced run word as one ``(symbol, component)`` pair per surviving
    symbol: the letter-level signature the run form replaced."""
    return [(sym, tag) for sym, tag, n in runs for _ in range(n)]


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
    assert x_monomial("2", -1, 1, 2) == ExtMonomial({(2, -1): (1, 2), (1, 0): (-1, -2)})
    assert x_monomial("3", -1, 0, 1) == ExtMonomial({(1, 0): (0, 2), (2, 0): (0, -1)})
    assert x_monomial("0", -1, 0, 1) == ExtMonomial({(1, 0): (0, 1), (1, 1): (0, -1)})
    assert x_monomial("3b", 2, 0, 3) == ExtMonomial({(2, 3): (0, 3), (1, 4): (0, -6)})
    assert x_monomial("2b", 0, 1, -1) == ExtMonomial({(1, 2): (1, -1), (2, 2): (-1, 1)})
    assert x_monomial("1b", -1, 0, 1) == ExtMonomial({(1, 2): (0, -1)})
    assert x_monomial("2", 4, 0, 0) == ExtMonomial()
    for letter in ("4", "3low", "", None, [], {}, 1):  # unhashable ones too: no TypeError
        with pytest.raises(ValueError, match="unknown X letter"):
            x_monomial(letter, 0, 0, 1)


@pytest.mark.parametrize("bad", [True, 1.0], ids=repr)
@pytest.mark.parametrize("slot", [0, 1, 2], ids=["m", "u", "v"])
def test_x_monomial_refuses_non_int_arguments(slot, bad):
    """``m + offset`` and ``power * u`` would turn ``True`` into an int
    before the constructor's check saw it."""
    args = [1, 1, 0]
    args[slot] = bad
    with pytest.raises(ValueError, match="position and exponents must be ints"):
        x_monomial("1", *args)


# The if-chain substitution and expansion that the ``_X_TO_Y`` table
# replaced, kept as the reference; the key is sorted here, not by the builder.
def _reference_x_exponents(letter, m, u, v):
    if letter == "1":
        exp = {(1, m): (u, v)}
    elif letter == "2":
        exp = {(2, m): (u, v), (1, m + 1): (-u, -v)}
    elif letter == "3":
        exp = {(1, m + 1): (2 * u, 2 * v), (2, m + 1): (-u, -v)}
    elif letter == "0":
        exp = {(1, m + 1): (u, v), (1, m + 2): (-u, -v)}
    elif letter == "3b":
        exp = {(2, m + 1): (u, v), (1, m + 2): (-2 * u, -2 * v)}
    elif letter == "2b":
        exp = {(1, m + 2): (u, v), (2, m + 2): (-u, -v)}
    elif letter == "1b":
        exp = {(1, m + 3): (-u, -v)}
    else:
        raise ValueError(f"unknown X letter {letter!r}")
    return exp


def _reference_key(elem):
    exp = {}
    for letter, m, u, v in elem.x_factors():
        for pos, (du, dv) in _reference_x_exponents(letter, m, u, v).items():
            pu, pv = exp.get(pos, (0, 0))
            exp[pos] = (pu + du, pv + dv)
    return tuple(sorted(pos + pair for pos, pair in exp.items() if pair != (0, 0)))


def test_expansion_matches_if_chain_reference():
    graph = bfs(highest_minf(), 10, "minf")
    for elem, _depth in graph.nodes.values():
        for params in ((1, 1, 0),) + _SHIFT_GRID:
            moved = elem.with_params(*params)
            assert moved.to_monomial().key() == _reference_key(moved), (elem, params)


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
    assert highest_minf().signature(1) == ()
    assert highest_minf().signature(2) == ()
    elem = minf_from_monomial(example_monomial)
    assert _letters(elem.signature(1)) == [(1, "1b")] + [(1, "3b")] * 4 + [(1, "0")]
    assert _letters(elem.signature(2)) == [(0, "3b")]


def test_eps_phi_match_signature_counts():
    rng = random.Random(19)
    for _ in range(200):
        elem = _random_vector(rng)
        for i in INDEX_SET:
            ones = sum(1 for sym, _tag in _letters(elem.signature(i)) if sym == 1)
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
    with pytest.raises(ValueError, match="nonnegative integers"):
        MinfElement(b2=1.5)
    with pytest.raises(ValueError, match="must be integers"):
        MinfElement(r=0.5)
    with pytest.raises(ValueError, match="must be integers"):
        MinfElement(p1=True)


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


def _membership_agrees(mono, params):
    """``is_minf_monomial`` holds exactly when ``minf_from_monomial`` does not
    raise; returns the element, or ``None`` for a non-member."""
    try:
        elem = minf_from_monomial(mono, *params)
    except ValueError:
        assert not is_minf_monomial(mono, *params), (mono.text(), params)
        return None
    assert is_minf_monomial(mono, *params), (mono.text(), params)
    return elem


@pytest.mark.parametrize("params", [(1, 1, 0), (2, 3, -2), (3, 1, 3)])
def test_membership_agrees_with_inverse(params):
    rng = random.Random(31)
    for _ in range(2000):
        _membership_agrees(random_monomial(rng), params)
    # Raising a_1^r by 2 keeps the support shape, the signs and the parity of
    # s1, so only the second linear relation rejects the product.
    nudge = ExtMonomial({(1, params[2]): (0, 2)})
    for elem, _depth in bfs(highest_minf(*params), 6, "minf").nodes.values():
        mono = elem.to_monomial()
        assert _membership_agrees(mono, params) == elem
        assert _membership_agrees(mono * nudge, params) is None


# The branch-per-tag operators the step table replaced, kept as the reference.
def _reference_f(self, i, sig=None):
    sig = _letters(self.signature(i)) if sig is None else sig
    zero_tags = [tag for sym, tag in sig if sym == 0]
    tag = zero_tags[0] if zero_tags else None
    if i == 1:
        if tag is None:
            return replace(self, b2=self.b2 + 1)
        if tag == "2b":
            return replace(self, b2bar=self.b2bar - 1, b1bar=self.b1bar + 1)
        if tag == "0":
            return replace(self, b0=self.b0 - 1, b3bar=self.b3bar + 1)
        if self.b0 != 0:
            raise RuntimeError(
                "a surviving 0 at X_3 forces b0 = 0: the X_0 zero sits further left"
            )
        return replace(self, b3=self.b3 - 1, b0=self.b0 + 1)
    if tag is None:
        return replace(self, b3low=self.b3low + 1)
    if tag == "3b":
        return replace(self, b3bar=self.b3bar - 1, b2bar=self.b2bar + 1)
    return replace(self, b2=self.b2 - 1, b3=self.b3 + 1)


def _reference_e(self, i, sig=None):
    sig = _letters(self.signature(i)) if sig is None else sig
    one_tags = [tag for sym, tag in sig if sym == 1]
    if not one_tags:
        return None
    tag = one_tags[-1]
    if i == 1:
        if tag == "1b":
            return replace(self, b1bar=self.b1bar - 1, b2bar=self.b2bar + 1)
        if tag == "3b":
            if self.b0 != 0:
                raise RuntimeError(
                    "a surviving 1 at X_3b forces b0 = 0: the X_0 one would outlive it"
                )
            return replace(self, b3bar=self.b3bar - 1, b0=self.b0 + 1)
        if tag == "0":
            if self.b0 != 1:
                raise RuntimeError("a surviving 1 at X_0 forces b0 = 1")
            return replace(self, b0=self.b0 - 1, b3=self.b3 + 1)
        return replace(self, b2=self.b2 - 1)
    if tag == "2b":
        return replace(self, b2bar=self.b2bar - 1, b3bar=self.b3bar + 1)
    if tag == "3":
        return replace(self, b3=self.b3 - 1, b2=self.b2 + 1)
    return replace(self, b3low=self.b3low - 1)


@pytest.mark.parametrize("params", [(1, 1, 0), (2, 3, -2), (3, 1, 3)])
def test_step_table_matches_branch_reference(params):
    """Every count vector with b0 in {0, 1} and the other counts in 0..3."""
    p1, p2, r = params
    for b0 in (0, 1):
        for b2, b3, b3bar, b2bar, b1bar, b3low in itertools.product(range(4), repeat=6):
            elem = MinfElement(b2, b3, b0, b3bar, b2bar, b1bar, b3low, p1, p2, r)
            for i in INDEX_SET:
                assert elem.f(i) == _reference_f(elem, i), (elem, i)
                assert elem.e(i) == _reference_e(elem, i), (elem, i)


@pytest.mark.parametrize(
    "elem, source, target",
    [
        (MinfElement(b3=1, b0=1), "3", "0"),  # f_1 at X_3 with b0 = 1
        (MinfElement(b3bar=1, b0=1), "3b", "0"),  # e_1 at X_3b with b0 = 1
        (MinfElement(b3bar=1), "0", "3"),  # e_1 at X_0 with b0 = 0
    ],
)
def test_move_out_of_domain_rejected(elem, source, target):
    with pytest.raises(ValueError):
        elem._apply(_SLOT[source], _SLOT[target])


# The letter-level signature word the run-length word replaced, kept as the
# reference.
def _reference_signature(self, i):
    word = []
    if i == 1:
        word += [(1, "1b")] * self.b1bar
        word += [(0, "2b")] * self.b2bar
        word += [(1, "3b")] * (2 * self.b3bar)
        word += [(1, "0")] * self.b0 + [(0, "0")] * self.b0
        word += [(0, "3")] * (2 * self.b3)
        word += [(1, "2")] * self.b2
    else:
        word += [(1, "2b")] * self.b2bar
        word += [(0, "3b")] * self.b3bar
        word += [(1, "3")] * self.b3
        word += [(0, "2")] * self.b2
        word += [(1, "3low")] * self.b3low
    return letter_reduce(word)


def test_run_word_matches_letter_reference():
    for counts in oracle_vectors():
        elem = MinfElement(*counts)
        for i in INDEX_SET:
            sig = _reference_signature(elem, i)
            assert _letters(elem.signature(i)) == sig, (counts, i)
            eps = sum(1 for sym, _tag in sig if sym == 1)
            assert elem.eps(i) == eps, (counts, i)
            assert elem.phi(i) == eps + elem.wt()[i - 1], (counts, i)
            assert outcome(lambda: elem.f(i)) == outcome(lambda: _reference_f(elem, i, sig))
            assert outcome(lambda: elem.e(i)) == outcome(lambda: _reference_e(elem, i, sig))
        assert len(elem.signature_word(1)) == 7 and len(elem.signature_word(2)) == 5


# The ``dataclasses.replace`` bodies of the count move and ``with_params``
# that the positional constructor calls replaced, kept as the reference; the
# move takes the positions that ``_apply`` takes.
_REFERENCE_COUNT = ("b2", "b3", "b0", "b3bar", "b2bar", "b1bar", "b3low")


def _reference_apply(self, lose, gain):
    change = {}
    if lose is not None:
        change[_REFERENCE_COUNT[lose]] = getattr(self, _REFERENCE_COUNT[lose]) - 1
    if gain is not None:
        change[_REFERENCE_COUNT[gain]] = getattr(self, _REFERENCE_COUNT[gain]) + 1
    return replace(self, **change)


def _reference_with_params(self, p1, p2, r):
    return replace(self, p1=p1, p2=p2, r=r)


def test_positional_construction_matches_replace_reference(monkeypatch):
    """``with_params``, ``f`` and ``e`` on every node of the depth-8 graph,
    moved to each of the 27 ``_SHIFT_GRID`` families, for both indices."""
    graph = bfs(highest_minf(), 8, "minf")
    elems = []
    for elem, _depth in graph.nodes.values():
        for params in _SHIFT_GRID:
            moved = elem.with_params(*params)
            assert moved == _reference_with_params(elem, *params), (elem, params)
            elems.append(moved)
    assert len(elems) == 176 * 27

    def images():
        return [outcome(lambda: op(i)) for elem in elems for op in (elem.f, elem.e)
                for i in INDEX_SET]

    with monkeypatch.context() as patch:
        patch.setattr(MinfElement, "_apply", _reference_apply)
        want = images()
    assert images() == want
    assert sum(img is None for img in want) > 0 and ValueError not in want


# The dict-based membership body the positional read replaced, kept as the
# reference; it takes valid family parameters only.  Its exponent read is the
# unchecked one ``ExtMonomial.exponent`` made before it refused a non-int
# position, so ``r = 0.0`` still reads like ``r = 0``.
def _reference_member_counts(monomial, p1, p2, r):
    def exponent(i, m):
        entry = monomial._exp.get((i, m))
        return (0, 0) if entry is None else entry[2:]

    allowed = {
        (1, r - 1): p1,
        (1, r): 0,
        (1, r + 1): 0,
        (1, r + 2): 0,
        (2, r - 2): p2,
        (2, r - 1): 0,
        (2, r): 0,
        (2, r + 1): 0,
    }
    for i, m, _u, _v in monomial.key():
        if (i, m) not in allowed:
            return None
    a = {}
    for (i, m), u_req in allowed.items():
        u, v = exponent(i, m)
        if u != u_req:
            return None
        a[(i, m)] = v
    a1m1, a10, a11, a12 = (a[(1, r - 1)], a[(1, r)], a[(1, r + 1)], a[(1, r + 2)])
    a2m2, a2m1, a20, a21 = (a[(2, r - 2)], a[(2, r - 1)], a[(2, r)], a[(2, r + 1)])
    if a2m2 - a2m1 > 0 or a21 > 0 or a12 > 0 or a2m2 > 0:
        return None
    if (a1m1 - a11 - a12) + (2 * a2m2 + a2m1 - a20 - 2 * a21) != 0:
        return None
    if (a1m1 + a10 - a12) + (a2m2 + 2 * a2m1 + a20 - a21) != 0:
        return None
    s1 = a10 + a2m1 - a2m2
    s2 = -a11 - a21
    if s1 < 0 or s2 < 0 or s1 % 2 != s2 % 2:
        return None
    b0 = s1 % 2
    return {
        "b2": a2m1 - a2m2,
        "b3": (s1 - b0) // 2,
        "b0": b0,
        "b3bar": (s2 - b0) // 2,
        "b2bar": -a21,
        "b1bar": -a12,
        "b3low": -a2m2,
    }


# Offsets from r of the eight support positions of a member, then of the
# four just outside them.
_NUDGE_POSITIONS = ((1, -1), (1, 0), (1, 1), (1, 2), (2, -2), (2, -1), (2, 0), (2, 1),
                    (1, -2), (1, 3), (2, -3), (2, 2))


@pytest.mark.parametrize("params", [(1, 1, 0), (2, 3, -2), (3, 1, 3), (1, 2, 5)])
def test_member_counts_match_reference(params):
    """20,000 sampled monomials; 2,000 Y-forms of integer count vectors,
    which meet the linear relations but may break a sign or ``b0 <= 1``;
    and every depth-8 element with the exponent at each of its eight
    support positions, or at one of the four just outside them, nudged by
    +-1 and +-2 in u and in v."""
    p1, p2, r = params
    rng = random.Random(37)
    monos = [random_monomial(rng) for _ in range(20000)]
    monos += [yform_oracle(*(rng.randint(-2, 2) for _ in range(7)), *params)
              for _ in range(2000)]
    nudges = [ExtMonomial({(i, r + offset): pair})
              for i, offset in _NUDGE_POSITIONS for d in (1, -1, 2, -2)
              for pair in ((0, d), (d, 0))]
    for elem, _depth in bfs(highest_minf(*params), 8, "minf").nodes.values():
        mono = elem.to_monomial()
        monos += [mono] + [mono * nudge for nudge in nudges]
    assert len(monos) == 22000 + 176 * 97
    members = 0
    for mono in monos:
        counts = _member_counts(mono, *params)
        assert counts == _reference_member_counts(mono, *params), (mono.text(), params)
        members += counts is not None
    assert 176 < members < len(monos)


def test_linear_relations_force_the_shared_parity():
    """The relations' sum is s1 + s2 mod 2, so ``_member_counts`` needs no
    parity test: every v-vector meeting them, with six free exponents in
    -3..3 and a1^{r-1}, a1^r solved for, has s1 and s2 of one parity."""
    for a11, a12, a2m2, a2m1, a20, a21 in itertools.product(range(-3, 4), repeat=6):
        a1m1 = a11 + a12 - 2 * a2m2 - a2m1 + a20 + 2 * a21
        a10 = -a1m1 + a12 - a2m2 - 2 * a2m1 - a20 + a21
        assert (a1m1 - a11 - a12) + (2 * a2m2 + a2m1 - a20 - 2 * a21) == 0
        assert (a1m1 + a10 - a12) + (a2m2 + 2 * a2m1 + a20 - a21) == 0
        assert (a10 + a2m1 - a2m2) % 2 == (-a11 - a21) % 2


@pytest.mark.parametrize(
    "params, accepted",
    [
        ((0, 1, 0), ExtMonomial({(2, -2): (1, 0)})),
        ((1, 0, 0), ExtMonomial({(1, -1): (1, 0)})),
        ((True, 1, 0), highest_monomial()),
        ((1, 1, 0.0), highest_monomial()),
        ((2.0, 1, 0), ExtMonomial({(1, -1): (2, 0), (2, -2): (1, 0)})),
    ],
    ids=repr,
)
def test_invalid_parameters_raise_the_family_error_on_both_entry_points(params, accepted):
    """Parameters that name no family raise ``MinfElement``'s ``ValueError``
    from both entry points, on any monomial; ``accepted`` is one the
    dict-based body took as a member."""
    assert _reference_member_counts(accepted, *params) is not None
    with pytest.raises(ValueError) as family:
        highest_minf(*params)
    rng = random.Random(41)
    for mono in [accepted, highest_monomial(), ExtMonomial()] + [
            random_monomial(rng) for _ in range(20)]:
        for entry in (is_minf_monomial, minf_from_monomial):
            with pytest.raises(ValueError) as exc:
                entry(mono, *params)
            assert str(exc.value) == str(family.value), (entry.__name__, mono.text())


@pytest.mark.parametrize("bad", ["x", 3, None], ids=repr)
@pytest.mark.parametrize("entry", [is_minf_monomial, minf_from_monomial, classify_seed],
                         ids=lambda entry: entry.__name__)
def test_non_monomials_are_refused(entry, bad):
    """A non-monomial gets a ``ValueError`` naming its type, not an
    ``AttributeError`` from inside; the membership entry points refuse it
    before they apply the family rule."""
    message = f"expected an ExtMonomial, got {type(bad).__name__}$"
    with pytest.raises(ValueError, match=message):
        entry(bad)
    if entry is not classify_seed:
        with pytest.raises(ValueError, match=message):
            entry(bad, 0, 1, 0)
