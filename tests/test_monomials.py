from __future__ import annotations

import random

from g2crystal.cartan import INDEX_SET, simple_root, weight_sub
from g2crystal.monomials import (
    ExtMonomial,
    ScanResult,
    a_monomial,
    classify_seed,
    highest_monomial,
)

from conftest import DEPTH2_YFORMS, EXAMPLE_EXPONENTS


def test_a_monomial_expansions():
    assert a_monomial(1, 0) == ExtMonomial(
        {(1, 0): (0, 1), (1, 1): (0, 1), (2, 0): (0, -1)}
    )
    assert a_monomial(2, -2) == ExtMonomial(
        {(2, -2): (0, 1), (2, -1): (0, 1), (1, -1): (0, -3)}
    )
    assert a_monomial(1, 0) * a_monomial(1, 0, -1) == ExtMonomial.one()


def test_multiplication():
    m = ExtMonomial(EXAMPLE_EXPONENTS)
    assert m * ExtMonomial.one() == m
    assert m * m.inverse() == ExtMonomial.one()
    left = highest_monomial() * a_monomial(1, -1, -1)
    assert left == ExtMonomial(DEPTH2_YFORMS[(1,)])


def test_weights():
    top = highest_monomial()
    assert top.wt_pairs() == ((1, 0), (1, 0))
    assert top.wt() == (0, 0)
    assert ExtMonomial.one().wt_pairs() == ((0, 0), (0, 0))
    assert ExtMonomial(EXAMPLE_EXPONENTS).wt() == (-5, -1)


def test_phi_eps_pairs():
    top = highest_monomial()
    assert top.phi_pair(1) == (1, 0) and top.eps_pair(1) == (0, 0)
    assert top.phi_pair(2) == (1, 0) and top.eps_pair(2) == (0, 0)
    one = ExtMonomial.one()
    for i in INDEX_SET:
        assert one.phi_pair(i) == (0, 0) and one.eps_pair(i) == (0, 0)
    lowered = top.f(1)
    assert lowered.phi_pair(1) == (1, -1)
    assert lowered.eps_pair(1) == (0, 1)


def test_operators_on_highest_element():
    top = highest_monomial()
    assert top.f(1) == ExtMonomial(DEPTH2_YFORMS[(1,)])
    assert top.f(2) == ExtMonomial(DEPTH2_YFORMS[(2,)])
    assert top.e(1) is None and top.e(2) is None
    for i in INDEX_SET:
        assert top.f(i).e(i) == top


def test_depth_two_slice():
    for word, exponents in DEPTH2_YFORMS.items():
        elem = highest_monomial()
        for i in word:
            elem = elem.f(i)
        assert elem == ExtMonomial(exponents), f"word {word}"


def test_classify_seed():
    assert classify_seed(highest_monomial()) == ("binf", (1, 1))
    assert classify_seed(ExtMonomial({(1, 0): (0, 1)})) == ("highest", (1, 0))
    assert classify_seed(highest_monomial().f(1)) == ("neither", None)
    assert classify_seed(ExtMonomial({(1, 0): (2, 0), (2, 3): (5, 0)})) == ("binf", (2, 5))


def _random_monomial(rng, window=5, bound=4, keep_u_zero=False):
    exp = {}
    for i in INDEX_SET:
        for m in range(-window, window + 1):
            if rng.random() < 0.3:
                u = 0 if keep_u_zero else rng.randint(-bound, bound)
                exp[(i, m)] = (u, rng.randint(-bound, bound))
    return ExtMonomial(exp)


def test_structure_map_bookkeeping_random():
    rng = random.Random(2)
    for _ in range(1000):
        mono = _random_monomial(rng)
        pairs = mono.wt_pairs()
        for i in INDEX_SET:
            phi, eps = mono.phi_pair(i), mono.eps_pair(i)
            assert pairs[i - 1] == (phi[0] - eps[0], phi[1] - eps[1])
            assert phi >= (0, 0) and eps >= (0, 0)
            down = mono.f(i)
            if down is not None:
                assert down.e(i) == mono
                assert weight_sub(mono.wt(), down.wt()) == simple_root(i)
            up = mono.e(i)
            if up is not None:
                assert up.f(i) == mono


def test_argmax_positions_sign_conditions():
    rng = random.Random(3)
    for _ in range(500):
        mono = _random_monomial(rng)
        for i in INDEX_SET:
            res = mono.scan(i)
            if res.m_f is not None:
                assert mono.exponent(i, res.m_f) > (0, 0)
                assert mono.exponent(i, res.m_f + 1) <= (0, 0)
            if res.m_e is not None:
                assert mono.exponent(i, res.m_e + 1) < (0, 0)
                assert mono.exponent(i, res.m_e) >= (0, 0)


def _classic_phi_eps(exponents, i):
    """Reference structure maps of the ordinary (single-integer-exponent)
    monomial crystal, computed directly from integer prefix sums."""
    ms = sorted(m for (j, m) in exponents if j == i)
    if not ms:
        return 0, 0, None, None
    lo, hi = ms[0] - 1, ms[-1] + 1
    acc, values = 0, []
    for m in range(lo, hi + 1):
        acc += exponents.get((i, m), 0)
        values.append((m, acc))
    phi = max(v for _m, v in values)
    eps = phi - acc
    m_f = min(m for m, v in values if v == phi) if phi > 0 else None
    m_e = max(m for m, v in values if v == phi) if eps > 0 else None
    return phi, eps, m_f, m_e


def test_ordinary_monomials_embed():
    """Monomials with zero pair-extension exponents behave exactly like the
    ordinary monomial crystal under every structure map."""
    rng = random.Random(5)
    for _ in range(500):
        mono = _random_monomial(rng, keep_u_zero=True)
        ints = {pos: v for pos, (_u, v) in
                ((pos, mono.exponent(*pos)) for pos in mono.support())}
        for i in INDEX_SET:
            phi, eps, m_f, m_e = _classic_phi_eps(ints, i)
            res = mono.scan(i)
            assert res.phi_pair == (0, phi) and res.eps_pair == (0, eps)
            assert (res.m_f, res.m_e) == (m_f, m_e)
            for img in (mono.f(i), mono.e(i)):
                if img is not None:
                    assert all(u == 0 for (u, _v) in
                               (img.exponent(*pos) for pos in img.support()))


def test_serialization():
    top = highest_monomial()
    assert top.text() == "Y_1(-1)^(1,0) Y_2(-2)^(1,0)"
    assert ExtMonomial.one().text() == "1"
    as_json = top.to_json()
    assert as_json == [
        {"i": 1, "m": -1, "u": 1, "v": 0},
        {"i": 2, "m": -2, "u": 1, "v": 0},
    ]
    assert ExtMonomial.from_json(as_json) == top
    example = ExtMonomial(EXAMPLE_EXPONENTS)
    assert ExtMonomial.from_json(example.to_json()) == example


def test_canonical_form_drops_zero_exponents():
    assert ExtMonomial({(1, 0): (0, 0)}) == ExtMonomial.one()
    assert hash(ExtMonomial({(1, 0): (0, 0)})) == hash(ExtMonomial.one())


def _dense_scan(mono, i):
    """Reference scan: prefix sums at every position of the dense range
    ``[min support - 1, max support + 1]``, arg-max read off the full list."""
    ms = [m for (j, m) in mono.support() if j == i]
    if not ms:
        return ScanResult((0, 0), (0, 0), None, None)
    cur, values = (0, 0), []
    for m in range(ms[0] - 1, ms[-1] + 2):
        u, v = mono.exponent(i, m)
        cur = (cur[0] + u, cur[1] + v)
        values.append((m, cur))
    phi = max(val for _m, val in values)
    eps = (phi[0] - cur[0], phi[1] - cur[1])
    m_f = min(m for m, val in values if val == phi) if phi > (0, 0) else None
    m_e = max(m for m, val in values if val == phi) if eps > (0, 0) else None
    return ScanResult(phi, eps, m_f, m_e)


def test_scan_matches_dense_reference():
    rng = random.Random(11)
    for _ in range(2000):
        mono = _random_monomial(rng, window=rng.randint(1, 8), bound=rng.randint(1, 5))
        for i in INDEX_SET:
            assert mono.scan(i) == _dense_scan(mono, i), (mono.text(), i)


def test_fast_constructor_matches_validating_constructor():
    """Products, inverses and A-monomials skip validation; they must equal,
    and hash like, the same data passed through ``ExtMonomial(...)``."""
    rng = random.Random(12)
    for _ in range(1000):
        left, right = _random_monomial(rng), _random_monomial(rng)
        product = {}
        for pos, (u, v) in left.factors() + right.factors():
            pu, pv = product.get(pos, (0, 0))
            product[pos] = (pu + u, pv + v)
        negated = {pos: (-u, -v) for pos, (u, v) in left.factors()}
        for fast, slow in (
            (left * right, ExtMonomial(product)),
            (left.inverse(), ExtMonomial(negated)),
            (left * left.inverse(), ExtMonomial.one()),
        ):
            assert fast == slow and hash(fast) == hash(slow) and fast.key() == slow.key()
    for i in INDEX_SET:
        for m in range(-3, 4):
            up, down = a_monomial(i, m), a_monomial(i, m, -1)
            slow_up = ExtMonomial(dict(up.factors()))
            slow_down = ExtMonomial({pos: (-u, -v) for pos, (u, v) in up.factors()})
            assert up == slow_up and hash(up) == hash(slow_up)
            assert down == slow_down and hash(down) == hash(slow_down)
