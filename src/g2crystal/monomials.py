"""Extended Nakajima monomials for G2 and their generic crystal structure.

A monomial is a finite product of variables ``Y_i(m)`` (i in {1,2}, m an
integer) whose exponents are integer pairs ``(u, v)`` compared
lexicographically.  The structure maps are

    wt~(M) = sum_i (sum_m y_i(m)) Lambda_i            (pair coefficients)
    phi~_i(M) = max over m of the prefix sums  sum_{k<=m} y_i(k)
    eps~_i(M) = max over m of the suffix sums  -sum_{k>m} y_i(k)

with the ordinary wt/phi_i/eps_i given by the second components.  The
lowering operator divides by ``A_i(m_f)`` at the smallest prefix arg-max
``m_f``; the raising operator multiplies by ``A_i(m_e)`` at the largest.
Prefix sums only change at support positions, so the arg-max scan makes one
pass over the canonical key, which is sorted by ``(i, m)``: the sum through
position ``m`` holds on ``[m, next support position - 1]``, the empty sum
holds at ``min support - 1`` and the total at ``max support + 1``.

One builder, ``_build``, makes every monomial: the constructor, products,
inverses, the operators (which add the three factors of ``A_i(m)^{+-1}``
directly, made by one call from the ``(i, sign)`` table ``a_monomial`` reads),
JSON, copies (``__reduce__`` rebuilds from the key, with no scans) and the
M(infinity) expansion.  Every exponent lives in one tuple shape, the entry
``(i, m, u, v)``: the builder takes entries as its factors, stores them as the
values of the position map and sorts those same objects into the key, the one
view that text, JSON and membership read.  An operator or product therefore
makes new entries only at the positions it changes; every other entry is
shared with the monomial it started from.

One scan for index ``i`` serves phi~_i, eps~_i, ``f_i`` and ``e_i``.  Only
``scan`` records it on the instance, once per index; ``f`` and ``e`` read a
recorded scan but never record one, computing it unrecorded when it is
missing.  So a graph made by ``bfs``, which only lowers, carries no scans.  A
recorded scan is read for an ``int`` index only, since ``True`` and ``1.0``
hash like ``1``; every other call checks the index before it scans.

The crystal zero is represented by ``None``; it marks the absence of an
edge, never an error.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import chain

from .cartan import (
    C_SHIFT,
    CARTAN,
    INDEX_SET,
    PAIR_ZERO,
    check_index,
    read_json_ints,
)

ScanResult = namedtuple("ScanResult", "phi_pair eps_pair m_f m_e")
_NO_SCAN = ScanResult(PAIR_ZERO, PAIR_ZERO, None, None)  # no index-i entry

# Every key of a factor record is required.
_FACTOR_KEYS = dict.fromkeys(("i", "m", "u", "v"))


class ExtMonomial:
    """An extended Nakajima monomial in canonical form.

    Exponents are stored as entries ``(i, m, u, v)`` with all zero pairs
    erased: ``_exp`` maps each support position ``(i, m)`` to its entry, and
    the key, which equality, hashing, :meth:`scan`, text and JSON read, is the
    sorted tuple of those same entry objects.  ``_scans`` is ``None`` until
    :meth:`scan` records its first result there (a dict from index to
    :class:`ScanResult`); nothing else writes it, and only ``scan``, ``f``
    and ``e`` read it.  The value never changes; the operators return new
    monomials, which share the untouched entries and start with no scans.
    """

    __slots__ = ("_exp", "_key", "_scans")

    def __init__(self, exponents=None):
        try:
            factors = [(i, m, u, v) for (i, m), (u, v) in dict(exponents or {}).items()]
        except (TypeError, ValueError):
            raise ValueError(f"exponents must map (i, m) to (u, v), got {exponents!r}") from None
        for i, m, u, v in factors:
            check_index(i)
            if type(m) is not int or type(u) is not int or type(v) is not int:
                raise ValueError(f"Y_{i}({m})^({u!r}, {v!r}): position and exponents must be ints")
        canon = _build({}, factors)
        self._exp, self._key, self._scans = canon._exp, canon._key, None

    def exponent(self, i, m):
        """The exponent pair of ``Y_i(m)``; ``ValueError`` unless ``i`` is 1 or 2 and ``m`` an int."""
        check_index(i)
        if type(m) is not int:
            raise ValueError(f"position must be an int, got {m!r}")
        entry = self._exp.get((i, m))
        return PAIR_ZERO if entry is None else entry[2:]

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, ExtMonomial) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        return _build, ({}, self._key)

    def __repr__(self):
        return f"ExtMonomial({self.text()!r})"

    def __mul__(self, other):
        if not isinstance(other, ExtMonomial):
            return NotImplemented
        return _build(self._exp, other._key)

    def inverse(self):
        return _build({}, [(i, m, -u, -v) for i, m, u, v in self._key])

    # -- structure maps -------------------------------------------------

    def wt_pairs(self):
        """Extended weight: one exponent-pair coefficient per Lambda_i."""
        u1 = v1 = u2 = v2 = 0
        for i, _m, u, v in self._key:
            if i == 1:
                u1, v1 = u1 + u, v1 + v
            else:
                u2, v2 = u2 + u, v2 + v
        return ((u1, v1), (u2, v2))

    def wt(self):
        """Ordinary weight: the second components of :meth:`wt_pairs`."""
        v1 = v2 = 0
        for i, _m, _u, v in self._key:
            if i == 1:
                v1 += v
            else:
                v2 += v
        return (v1, v2)

    def scan(self, i):
        """Prefix-sum extrema for index ``i``.

        Returns phi~_i, eps~_i and the arg-max positions ``m_f`` (smallest)
        and ``m_e`` (largest); a position is ``None`` exactly when its map,
        phi~_i or eps~_i, is (0, 0): the operator does not act, and the true
        arg-max set is unbounded on that side.

        The only method that records a scan: the first call for ``i`` stores
        its result on the instance, and later calls, the structure maps and
        ``f``/``e`` read it from there.  Only an ``int`` is looked up, since
        ``True`` and ``1.0`` hash like ``1``; a miss checks the index.
        """
        scans = self._scans
        if scans and type(i) is int and i in scans:
            return scans[i]
        res = _scan(self._key, check_index(i))
        if scans is None:
            scans = self._scans = {}
        scans[i] = res
        return res

    def phi_pair(self, i):
        return self.scan(i).phi_pair

    def eps_pair(self, i):
        return self.scan(i).eps_pair

    def phi(self, i):
        return self.scan(i).phi_pair[1]

    def eps(self, i):
        return self.scan(i).eps_pair[1]

    def f(self, i):
        scans = self._scans  # True and 1.0 hash like 1, so only an int is looked up
        res = scans[i] if scans and type(i) is int and i in scans else _scan(self._key, check_index(i))
        return None if (pos := res.m_f) is None else _build(self._exp, _A_FACTORS[i, -1](pos))

    def e(self, i):
        scans = self._scans
        res = scans[i] if scans and type(i) is int and i in scans else _scan(self._key, check_index(i))
        return None if (pos := res.m_e) is None else _build(self._exp, _A_FACTORS[i, 1](pos))

    # -- serialization ---------------------------------------------------

    def text(self):
        return _text_template(len(self._key)) % tuple(chain.from_iterable(self._key)) or "1"

    def to_json(self):
        return [{"i": i, "m": m, "u": u, "v": v} for i, m, u, v in self._key]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, list):
            raise ValueError(f"expected a JSON array of factors, got {type(obj).__name__}")
        recs = [read_json_ints(rec, _FACTOR_KEYS) for rec in obj]
        for rec in recs:
            check_index(rec["i"])
        return _build({}, [(rec["i"], rec["m"], rec["u"], rec["v"]) for rec in recs])


def check_monomial(obj):
    """Raise :class:`ValueError` unless ``obj`` is an :class:`ExtMonomial`."""
    if not isinstance(obj, ExtMonomial):
        raise ValueError(f"expected an ExtMonomial, got {type(obj).__name__}")


@cache
def _text_template(n):  # ExtMonomial.text for n entries, one %d per entry field
    return " ".join(["Y_%d(%d)^(%d,%d)"] * n)


def _scan(key, i):
    """The scan of :meth:`ExtMonomial.scan` for a checked index, unrecorded.

    One pass over the canonical key (index-``i`` entries in increasing
    ``m``).  While the total equals phi~ (``held``), the run of maxima
    reaches the next support position minus 1.  A run still held at the
    last position means eps~ = 0, so ``m_e`` is not read from it.
    """
    tu = tv = pu = pv = 0  # running total and phi~, both the empty sum
    first = last = None  # first and last position holding phi~
    held = False
    for j, m, u, v in key:
        if j != i:
            continue
        if held:
            last = m - 1
        elif first is None:  # the empty sum holds at min support - 1
            first = last = m - 1
        tu, tv = tu + u, tv + v
        if tu > pu or (tu == pu and tv > pv):
            pu, pv, first, held = tu, tv, m, True
        else:
            held = tu == pu and tv == pv
    if first is None:
        return _NO_SCAN
    phi_pair, eps_pair = (pu, pv), (pu - tu, pv - tv)
    m_f = first if phi_pair > PAIR_ZERO else None
    m_e = last if eps_pair > PAIR_ZERO else None
    return tuple.__new__(ScanResult, (phi_pair, eps_pair, m_f, m_e))


def _build(base, factors):
    """The canonical monomial ``base * prod factors``: ``base`` is a zero-free
    position map ``(i, m) -> (i, m, u, v)``, left unchanged, and ``factors``
    yields entries ``(i, m, u, v)`` of checked ints.  A factor at a new
    position is stored as it is (a zero one is not stored); at a position
    already present it makes one new entry, or erases the position when the
    sum is zero.  The only code that adds pairs, drops zeros and sorts."""
    exp = dict(base)
    for entry in factors:
        i, m, u, v = entry
        pos = (i, m)
        old = exp.get(pos)
        if old is not None:
            u, v = u + old[2], v + old[3]
            entry = (i, m, u, v)
        if u or v:
            exp[pos] = entry
        else:
            exp.pop(pos, None)
    mono = object.__new__(ExtMonomial)
    mono._exp = exp
    mono._key = tuple(sorted(exp.values()))
    mono._scans = None
    return mono


def _a_factors(i, sign):
    """``m ->`` the three entries of ``A_i(m)^sign``, as :func:`a_monomial` spells them out."""
    (j,) = (j for j in INDEX_SET if j != i)
    shift, power = C_SHIFT[(j, i)], sign * CARTAN[(j, i)]
    return lambda m: ((i, m, 0, sign), (i, m + 1, 0, sign), (j, m + shift, 0, power))


_A_FACTORS = {(i, sign): _a_factors(i, sign) for i in INDEX_SET for sign in (1, -1)}


def a_monomial(i, m, sign=1):
    """The monomial ``A_i(m)^sign``, sign 1 or -1, in the c_12 = 1, c_21 = 0 convention.

    A_1(m) = Y_1(m)^(0,1) Y_1(m+1)^(0,1) Y_2(m)^(0,-1)
    A_2(m) = Y_2(m)^(0,1) Y_2(m+1)^(0,1) Y_1(m+1)^(0,-3)
    """
    check_index(i)
    if type(m) is not int or type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"A_i(m)^sign needs an int m and sign 1 or -1, got m={m!r}, sign={sign!r}")
    return _build({}, _A_FACTORS[i, sign](m))


def highest_monomial(p1=1, p2=1, r=0):
    """The dominant seed ``Y_1(r-1)^(p1,0) Y_2(r-2)^(p2,0)``: the highest element of
    M(p1, p2; r; infinity) expanded, so ``ValueError`` where that names no family."""
    from .minf import highest_minf  # function level: minf imports this module
    return highest_minf(p1, p2, r).to_monomial()


def classify_seed(monomial):
    """Classify a monomial killed by every raising operator.

    Returns ``("highest", (p1, p2))`` when wt~ = sum (0, p_i) Lambda_i with
    p_i >= 0 (seed of a highest weight crystal), ``("binf", (p1, p2))`` when
    wt~ = sum (p_i, 0) Lambda_i with p_i > 0 (seed of an infinity crystal),
    and ``("neither", None)`` otherwise; ``ValueError`` for a non-monomial.
    """
    check_monomial(monomial)
    for i in INDEX_SET:
        if monomial.e(i) is not None:
            return ("neither", None)
    (u1, v1), (u2, v2) = monomial.wt_pairs()
    if u1 == 0 and u2 == 0 and v1 >= 0 and v2 >= 0:
        return ("highest", (v1, v2))
    if v1 == 0 and v2 == 0 and u1 > 0 and u2 > 0:
        return ("binf", (u1, u2))
    return ("neither", None)
