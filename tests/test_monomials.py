from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2crystal.cartan import INDEX_SET, PAIR_ZERO, pair_add, pair_neg, simple_root, weight_sub
from g2crystal import monomials
from g2crystal.graph import bfs
from g2crystal.minf import highest_minf
from g2crystal.monomials import (
    ExtMonomial,
    ScanResult,
    a_monomial,
    classify_seed,
    highest_monomial,
)
from g2crystal.verify import random_monomial

from conftest import DEPTH2_YFORMS, EXAMPLE_EXPONENTS


def test_a_monomial_expansions():
    assert a_monomial(1, 0) == ExtMonomial(
        {(1, 0): (0, 1), (1, 1): (0, 1), (2, 0): (0, -1)}
    )
    assert a_monomial(2, -2) == ExtMonomial(
        {(2, -2): (0, 1), (2, -1): (0, 1), (1, -1): (0, -3)}
    )
    assert a_monomial(1, 0) * a_monomial(1, 0, -1) == ExtMonomial()


def test_multiplication():
    m = ExtMonomial(EXAMPLE_EXPONENTS)
    assert m * ExtMonomial() == m
    assert m * m.inverse() == ExtMonomial()
    left = highest_monomial() * a_monomial(1, -1, -1)
    assert left == ExtMonomial(DEPTH2_YFORMS[(1,)])


def test_weights():
    top = highest_monomial()
    assert top.wt_pairs() == ((1, 0), (1, 0))
    assert top.wt() == (0, 0)
    assert ExtMonomial().wt_pairs() == ((0, 0), (0, 0))
    assert ExtMonomial(EXAMPLE_EXPONENTS).wt() == (-5, -1)


def test_phi_eps_pairs():
    top = highest_monomial()
    assert top.phi_pair(1) == (1, 0) and top.eps_pair(1) == (0, 0)
    assert top.phi_pair(2) == (1, 0) and top.eps_pair(2) == (0, 0)
    one = ExtMonomial()
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
    # the boundaries of the "highest" and "binf" tests
    assert classify_seed(ExtMonomial()) == ("highest", (0, 0))
    assert classify_seed(ExtMonomial({(2, 0): (0, 1)})) == ("highest", (0, 1))
    assert classify_seed(ExtMonomial({(2, 0): (1, 0)})) == ("neither", None)
    assert classify_seed(ExtMonomial({(1, 0): (1, 0)})) == ("neither", None)


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
        ints = {(j, m): v for j, m, _u, v in mono.key()}
        for i in INDEX_SET:
            phi, eps, m_f, m_e = _classic_phi_eps(ints, i)
            res = mono.scan(i)
            assert res.phi_pair == (0, phi) and res.eps_pair == (0, eps)
            assert (res.m_f, res.m_e) == (m_f, m_e)
            for img in (mono.f(i), mono.e(i)):
                if img is not None:
                    assert all(u == 0 for _j, _m, u, _v in img.key())


def test_serialization():
    top = highest_monomial()
    assert top.text() == "Y_1(-1)^(1,0) Y_2(-2)^(1,0)"
    assert ExtMonomial().text() == "1"
    as_json = top.to_json()
    assert as_json == [
        {"i": 1, "m": -1, "u": 1, "v": 0},
        {"i": 2, "m": -2, "u": 1, "v": 0},
    ]
    assert ExtMonomial.from_json(as_json) == top
    example = ExtMonomial(EXAMPLE_EXPONENTS)
    assert ExtMonomial.from_json(example.to_json()) == example


def test_canonical_form_drops_zero_exponents():
    assert ExtMonomial({(1, 0): (0, 0)}) == ExtMonomial()
    assert hash(ExtMonomial({(1, 0): (0, 0)})) == hash(ExtMonomial())


def _dense_scan(mono, i):
    """Reference scan: prefix sums at every position of the dense range
    ``[min support - 1, max support + 1]``, arg-max read off the full list."""
    ms = [m for j, m, _u, _v in mono.key() if j == i]
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
        for i, m, u, v in left.key() + right.key():
            pu, pv = product.get((i, m), (0, 0))
            product[(i, m)] = (pu + u, pv + v)
        negated = {(i, m): (-u, -v) for i, m, u, v in left.key()}
        for fast, slow in (
            (left * right, ExtMonomial(product)),
            (left.inverse(), ExtMonomial(negated)),
            (left * left.inverse(), ExtMonomial()),
        ):
            assert fast == slow and hash(fast) == hash(slow) and fast.key() == slow.key()
    for i in INDEX_SET:
        for m in range(-3, 4):
            up, down = a_monomial(i, m), a_monomial(i, m, -1)
            slow_up = ExtMonomial({(j, n): (u, v) for j, n, u, v in up.key()})
            slow_down = ExtMonomial({(j, n): (-u, -v) for j, n, u, v in up.key()})
            assert up == slow_up and hash(up) == hash(slow_up)
            assert down == slow_down and hash(down) == hash(slow_down)


def test_constructors_reject_non_integers():
    """Positions, exponents and indices must be ints; nothing is truncated."""
    for bad in (
        {(1, 0.5): (1.7, 0)},
        {(True, 0): (1, 0)},
        {(1, 0): (True, 0)},
        {(2, 0): (0, 1.0)},
    ):
        with pytest.raises(ValueError):
            ExtMonomial(bad)
    for i, m in ((1, 2.9), (True, 0), (3, 0)):
        with pytest.raises(ValueError):
            a_monomial(i, m)


@pytest.mark.parametrize(
    "bad", [{1: (1, 1)}, {(1, 0): 5}, [1, 2], {(1, 0, 0): (1, 1)}, "x"], ids=repr
)
def test_constructor_rejects_a_malformed_map(bad):
    """Anything that is not a map ``(i, m) -> (u, v)`` gets one ``ValueError``."""
    with pytest.raises(ValueError) as exc:
        ExtMonomial(bad)
    assert str(exc.value) == f"exponents must map (i, m) to (u, v), got {bad!r}"


# The scan, extended weight and product of the dict-based core that the
# key-based one replaced, kept as the reference.  They read the exponent map
# ``(i, m) -> (u, v)`` derived from the key, not the monomial's storage.
def _pair_map(mono):
    return {(i, m): (u, v) for i, m, u, v in mono.key()}


def _reference_scan(mono, i):
    support = sorted((m, pair) for (j, m), pair in _pair_map(mono).items() if j == i)
    if not support:
        return ScanResult(PAIR_ZERO, PAIR_ZERO, None, None)
    run_ends = [m - 1 for m, _pair in support[1:]] + [support[-1][0] + 1]
    total = phi_pair = PAIR_ZERO
    first = last = support[0][0] - 1
    for (m, pair), end in zip(support, run_ends):
        total = pair_add(total, pair)
        if total > phi_pair:
            phi_pair, first, last = total, m, end
        elif total == phi_pair:
            last = end
    eps_pair = pair_add(phi_pair, pair_neg(total))
    m_f = first if phi_pair > PAIR_ZERO else None
    m_e = last if eps_pair > PAIR_ZERO else None
    return ScanResult(phi_pair, eps_pair, m_f, m_e)


def _reference_wt_pairs(mono):
    totals = {i: PAIR_ZERO for i in INDEX_SET}
    for (i, _m), pair in _pair_map(mono).items():
        totals[i] = pair_add(totals[i], pair)
    return (totals[1], totals[2])


def _reference_product(left, right):
    """The exponent map of ``left * right``."""
    exp = _pair_map(left)
    for pos, pair in _pair_map(right).items():
        if pos in exp:
            pair = pair_add(exp[pos], pair)
            if pair == PAIR_ZERO:
                del exp[pos]
                continue
        exp[pos] = pair
    return exp


def _reference_key(exp):
    return tuple(sorted(pos + pair for pos, pair in exp.items()))


def _assert_core_matches_reference(mono, other):
    # scan relies on the key being sorted, whichever constructor built it
    exp = _pair_map(mono)
    entries = [pos + pair for pos, pair in exp.items()]
    assert mono.key() == ExtMonomial(exp).key() == monomials._build({}, entries).key()
    assert mono.key() == _reference_key(exp)
    for i in INDEX_SET:
        assert mono.scan(i) == _reference_scan(mono, i), (mono.text(), i)
    assert mono.wt_pairs() == _reference_wt_pairs(mono), mono.text()
    exp = _reference_product(mono, other)
    product = mono * other
    assert _pair_map(product) == exp and product.key() == _reference_key(exp), mono.text()


def _assert_core_matches_reference_on(monos):
    for mono, other in zip(monos, monos[1:] + monos[:1]):
        _assert_core_matches_reference(mono, other)
        _assert_core_matches_reference(mono, mono.inverse())
        assert mono * mono.inverse() == ExtMonomial()


def test_core_matches_reference_on_random_draws():
    rng = random.Random(21)
    draws = [
        _random_monomial(rng, window=rng.randint(1, 8), bound=rng.randint(1, 5))
        for _ in range(2000)
    ]
    rng = random.Random(22)
    draws += [random_monomial(rng) for _ in range(2000)]
    _assert_core_matches_reference_on(draws)


def test_core_matches_reference_on_depth_ten_graph():
    graph = bfs(highest_monomial(), 10, "monomial")
    monos = [mono for mono, _depth in graph.nodes.values()]
    _assert_core_matches_reference_on(monos)
    for mono in monos:
        for i in INDEX_SET:
            res = _reference_scan(mono, i)
            if res.m_f is not None:
                _assert_core_matches_reference(mono, a_monomial(i, res.m_f, -1))
            if res.m_e is not None:
                _assert_core_matches_reference(mono, a_monomial(i, res.m_e, +1))


def test_core_matches_reference_on_edge_cases():
    big = 10**9
    cases = [
        ExtMonomial(),
        ExtMonomial({(1, 0): (0, 3), (1, 2): (0, -1), (1, 5): (0, -2)}),
        ExtMonomial({(2, -3): (1, -1), (2, 4): (-1, 2), (2, 5): (0, -1)}),
        ExtMonomial({(1, 0): (big, -big), (1, 1): (-big, big), (2, 0): (0, big), (2, 7): (0, 1)}),
        ExtMonomial({(1, -big): (0, 1), (1, big): (0, -1), (2, 0): (-big, 0)}),
    ]
    assert ExtMonomial().scan(1) == ExtMonomial().scan(2) == ScanResult(
        PAIR_ZERO, PAIR_ZERO, None, None
    )
    for mono in cases:
        for other in cases:
            _assert_core_matches_reference(mono, other)
    _assert_core_matches_reference_on(cases)


_exponent_maps = st.dictionaries(
    st.tuples(st.sampled_from(INDEX_SET), st.integers(-6, 6)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    max_size=12,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(exp=_exponent_maps)
def test_scan_matches_reference_on_arbitrary_maps(exp):
    mono = ExtMonomial(exp)
    for i in INDEX_SET:
        assert mono.scan(i) == _reference_scan(mono, i) == _dense_scan(mono, i)


def test_operators_and_products_share_untouched_entries():
    """Storage and key hold the same entries ``(i, m, u, v)``, and a new
    monomial makes new ones only where it changes an exponent: ``f``/``e``
    at the three positions of their A-factor, a product where both sides
    have support.  Every other entry is its parent's own object."""
    monos = [mono for mono, _depth in bfs(highest_monomial(), 10, "monomial").nodes.values()]
    shared = 0
    for mono in monos:
        assert list(mono.key()) == sorted(mono._exp.values())
        for i in INDEX_SET:
            res = mono.scan(i)
            for child, m, sign in ((mono.f(i), res.m_f, -1), (mono.e(i), res.m_e, 1)):
                if child is None:
                    continue
                assert list(child.key()) == sorted(child._exp.values())
                touched = {(j, n) for j, n, _u, _v in a_monomial(i, m, sign).key()}
                kept = [pos for pos in mono._exp if pos not in touched]
                assert all(child._exp[pos] is mono._exp[pos] for pos in kept)
                assert all(entry is mono._exp[entry[:2]]
                           for entry in child.key() if entry[:2] not in touched)
                shared += len(kept)
    assert shared > len(monos)
    rng = random.Random(25)
    draws = [random_monomial(rng) for _ in range(len(monos))]
    for left, right in zip(monos + draws, draws + monos):
        product = left * right
        assert list(product.key()) == sorted(product._exp.values())
        assert all(product._exp[entry[:2]] is entry
                   for entry in right.key() if entry[:2] not in left._exp)


def test_a_monomial_takes_only_signs_one_and_minus_one():
    assert a_monomial(2, 1, 1) * a_monomial(2, 1, -1) == ExtMonomial()
    for sign in (0, -5, 2, 0.5, True, None):
        with pytest.raises(ValueError, match="sign 1 or -1"):
            a_monomial(1, 0, sign)
    for i in (0, 3, True, 1.0):
        with pytest.raises(ValueError, match="index must be 1 or 2"):
            a_monomial(i, 0)


def test_operators_build_without_a_monomial_or_product(monkeypatch):
    """``f``/``e`` add the three factors of ``A_i(m)^{-+1}`` through the
    builder: with ``a_monomial`` and ``__mul__`` patched to raise, they still
    equal ``mono * a_monomial(i, m, -+1)``, computed before patching."""
    monos = [mono for mono, _depth in bfs(highest_monomial(), 10, "monomial").nodes.values()]
    rng = random.Random(24)
    monos += [random_monomial(rng) for _ in range(2000)]
    expected = []
    for mono in monos:
        for i in INDEX_SET:
            res = mono.scan(i)
            down = None if res.m_f is None else mono * a_monomial(i, res.m_f, -1)
            up = None if res.m_e is None else mono * a_monomial(i, res.m_e, 1)
            expected.append((down, up))

    def refuse(*_args):
        raise AssertionError("f/e build a throwaway A-monomial or product")

    monkeypatch.setattr(monomials, "a_monomial", refuse)
    monkeypatch.setattr(ExtMonomial, "__mul__", refuse)
    got = [(mono.f(i), mono.e(i)) for mono in monos for i in INDEX_SET]
    assert got == expected
    assert sum(down is not None for down, _up in got) > len(monos)


def test_from_json_multiplies_repeated_factors():
    def rec(i, m, u, v):
        return {"i": i, "m": m, "u": u, "v": v}

    pair = [rec(1, 2, 1, 2), rec(2, 0, 0, 1), rec(1, 2, 3, -5)]
    assert ExtMonomial.from_json(pair) == ExtMonomial({(1, 2): (4, -3), (2, 0): (0, 1)})
    assert ExtMonomial.from_json(pair + [rec(1, 2, -4, 3)]) == ExtMonomial({(2, 0): (0, 1)})
    cancelling = [rec(1, 2, 1, 2), rec(1, 2, -1, -2)]
    assert ExtMonomial.from_json(cancelling) == ExtMonomial()
    assert ExtMonomial.from_json(cancelling).key() == ()
    for i in (0, 3):
        with pytest.raises(ValueError, match="index must be 1 or 2"):
            ExtMonomial.from_json([rec(i, 0, 1, 0)])


@pytest.mark.parametrize("other", [3, None, "x"], ids=repr)
def test_product_with_a_non_monomial_is_a_type_error(other):
    with pytest.raises(TypeError):
        highest_monomial() * other


@settings(max_examples=300, derandomize=True, deadline=None)
@given(exp=_exponent_maps)
def test_recorded_scan_is_the_reference_scan(exp):
    """A recorded scan reads back as the reference, whether ``f``/``e`` ran
    before it was recorded or after, and ``f``/``e`` give the same results
    from a recorded scan as without one."""
    mono = ExtMonomial(exp)
    refs = {i: _reference_scan(mono, i) for i in INDEX_SET}
    for i in INDEX_SET:
        unrecorded = (mono.f(i), mono.e(i))
        assert mono.scan(i) == mono.scan(i) == refs[i], (mono.text(), i)
        assert (mono.f(i), mono.e(i)) == unrecorded, (mono.text(), i)
        assert mono.scan(i) == refs[i], (mono.text(), i)


def test_recorded_scans_leave_identity_and_output_alone():
    rng = random.Random(26)
    for _ in range(200):
        exp = _pair_map(_random_monomial(rng))
        fresh, scanned = ExtMonomial(exp), ExtMonomial(exp)
        for i in INDEX_SET:
            scanned.scan(i)
        assert scanned._scans is not None and fresh._scans is None
        assert scanned == fresh and hash(scanned) == hash(fresh)
        assert scanned.key() == fresh.key() and scanned.text() == fresh.text()
        assert scanned.to_json() == fresh.to_json()
        copied = pickle.loads(pickle.dumps(scanned))
        assert copied == fresh and hash(copied) == hash(fresh)
        assert copied.key() == fresh.key()


@pytest.mark.parametrize("bad", [True, 1.0, 3, None, 2.0, False, 0, "1"], ids=repr)
@pytest.mark.parametrize("method", ["scan", "eps", "phi", "eps_pair", "phi_pair", "f", "e"])
def test_index_is_checked_before_a_recorded_scan_is_read(method, bad):
    """``True`` and ``1.0`` hash like ``1`` (``2.0`` like ``2``), so a lookup
    before the index check would hand them a recorded scan; a refused index
    records nothing."""
    mono = highest_monomial().f(1)
    mono.scan(1), mono.scan(2)
    with pytest.raises(ValueError, match="index must be 1 or 2"):
        getattr(mono, method)(bad)
    assert mono._scans.keys() == {1, 2}


def test_scan_results_are_scan_results():
    """``_scan`` builds its result without the namedtuple constructor, and
    shares one empty scan; both are :class:`ScanResult` instances."""
    for mono in (ExtMonomial(), highest_monomial(), highest_monomial().f(2).f(1)):
        for i in INDEX_SET:
            res = monomials._scan(mono.key(), i)
            assert type(res) is ScanResult and res == _reference_scan(mono, i)
            assert res._asdict()["m_f"] == res.m_f


def _assert_operators_read_scans_alike(mono):
    """``f``/``e`` give one result from a fresh scan and a recorded one: the
    product with ``A_i(m)^-+1`` at the scan's arg-max position."""
    for i in INDEX_SET:
        fresh = (mono.f(i), mono.e(i))
        res = mono.scan(i)
        want = tuple(None if m is None else mono * a_monomial(i, m, sign)
                     for m, sign in ((res.m_f, -1), (res.m_e, 1)))
        assert (mono.f(i), mono.e(i)) == fresh == want, (mono.text(), i)


def test_operators_read_a_recorded_scan_as_a_fresh_one():
    for mono, _depth in bfs(highest_monomial(), 10, "monomial").nodes.values():
        _assert_operators_read_scans_alike(mono)
    rng = random.Random(39)
    for _ in range(2000):
        _assert_operators_read_scans_alike(random_monomial(rng))


def test_copies_start_without_scans():
    """``__reduce__`` rebuilds from the key: every pickle protocol and both
    copies give an equal monomial that shares and carries no recorded scan."""
    mono = ExtMonomial(EXAMPLE_EXPONENTS)
    for i in INDEX_SET:
        mono.scan(i)
    copies = [pickle.loads(pickle.dumps(mono, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in (*copies, copy.copy(mono), copy.deepcopy(mono)):
        assert copied == mono and hash(copied) == hash(mono)
        assert copied.key() == mono.key() and copied._scans is None
        copied.scan(2)
    assert mono._scans.keys() == {1, 2}


def test_operators_record_no_scan():
    """Only ``scan`` records, so a graph made by ``bfs``, which only lowers,
    holds no recorded scan."""
    graph = bfs(highest_monomial(), 10, "monomial")
    assert len(graph.nodes) > 100
    assert all(mono._scans is None for mono, _depth in graph.nodes.values())
    mono = highest_monomial().f(1).f(2)
    assert mono.f(1) is not None and mono.e(2) is not None
    assert mono._scans is None


def _assert_positions_mark_the_maps(mono):
    """``m_f`` is ``None`` exactly when phi~ is (0, 0), and ``m_e`` exactly
    when eps~ is, so ``f``/``e`` may decide on the position alone."""
    for i in INDEX_SET:
        res = mono.scan(i)
        assert (res.m_f is None) == (res.phi_pair == PAIR_ZERO), (mono.text(), i)
        assert (res.m_e is None) == (res.eps_pair == PAIR_ZERO), (mono.text(), i)
        assert (mono.f(i) is None) == (res.m_f is None), (mono.text(), i)
        assert (mono.e(i) is None) == (res.m_e is None), (mono.text(), i)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(exp=_exponent_maps)
def test_scan_positions_mark_the_maps_on_arbitrary_maps(exp):
    _assert_positions_mark_the_maps(ExtMonomial(exp))


def test_scan_positions_mark_the_maps_on_draws_and_the_graph():
    rng = random.Random(27)
    monos = [random_monomial(rng) for _ in range(2000)]
    monos += [mono for mono, _depth in bfs(highest_monomial(), 10, "monomial").nodes.values()]
    for mono in monos:
        _assert_positions_mark_the_maps(mono)


@pytest.mark.parametrize("bad", [True, 1.0], ids=repr)
def test_highest_monomial_refuses_a_non_int_r(bad):
    """``r - 1`` would turn ``True`` into the int 0 before any check saw it."""
    for params in ((1, 1, bad), (bad, 1, 0), (1, bad, 0)):
        with pytest.raises(ValueError, match="family parameters must be integers"):
            highest_monomial(*params)


def _reference_highest_monomial(p1=1, p2=1, r=0):
    """The body ``highest_monomial`` had before it expanded ``highest_minf``."""
    return ExtMonomial({(1, r - 1): (p1, 0), (2, r - 2): (p2, 0)})


def test_highest_monomial_matches_the_reference():
    assert highest_monomial() == _reference_highest_monomial()
    for p1 in range(1, 6):
        for p2 in range(1, 6):
            for r in range(-5, 6):
                assert highest_monomial(p1, p2, r) == _reference_highest_monomial(p1, p2, r)


@pytest.mark.parametrize("params", [(0, 1, 0), (1, 0, 0), (True, 1, 0), (1, 1, 0.0)], ids=repr)
def test_highest_monomial_refuses_what_names_no_family(params):
    """The seed exists only for a family, and the refusal is ``highest_minf``'s."""
    with pytest.raises(ValueError) as family:
        highest_minf(*params)
    with pytest.raises(ValueError) as exc:
        highest_monomial(*params)
    assert str(exc.value) == str(family.value)


def test_wt_is_the_second_components_of_wt_pairs():
    """``wt`` sums the v-components in a pass of its own."""
    rng = random.Random(29)
    monos = [random_monomial(rng) for _ in range(2000)]
    monos += [mono for mono, _depth in bfs(highest_monomial(), 10, "monomial").nodes.values()]
    for mono in monos:
        (_u1, v1), (_u2, v2) = mono.wt_pairs()
        assert mono.wt() == (v1, v2), mono.text()


@pytest.mark.parametrize("i, m", [(True, -1), (1.0, -1), (1, -1.0), (3, 0)], ids=repr)
def test_exponent_refuses_a_bad_index_or_position(i, m):
    """``True``, ``1.0`` and ``-1.0`` hash like the ints 1 and -1, so an
    unchecked lookup would read the exponent of ``Y_1(-1)``."""
    with pytest.raises(ValueError, match="index must be 1 or 2|position must be an int"):
        highest_monomial().exponent(i, m)
