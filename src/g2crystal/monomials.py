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

The crystal zero is represented by ``None``; it marks the absence of an
edge, never an error.
"""

from __future__ import annotations

from collections import namedtuple

from .cartan import (
    C_SHIFT,
    CARTAN,
    INDEX_SET,
    PAIR_ZERO,
    check_index,
    pair_add,
    pair_neg,
    read_json_ints,
)

ScanResult = namedtuple("ScanResult", "phi_pair eps_pair m_f m_e")

# Every key of a factor record is required.
_FACTOR_KEYS = dict.fromkeys(("i", "m", "u", "v"))


class ExtMonomial:
    """An extended Nakajima monomial in canonical form.

    Exponents are stored as a map ``(i, m) -> (u, v)`` with all zero pairs
    erased, and as the key: the sorted tuple of ``(i, m, u, v)``, which
    equality, hashing, :meth:`key` and :meth:`scan` read.  Instances are
    immutable; the operators return new monomials.
    """

    __slots__ = ("_exp", "_key")

    def __init__(self, exponents=None):
        exp = {}
        if exponents:
            for (i, m), pair in dict(exponents).items():
                u, v = pair
                check_index(i)
                if type(m) is not int or type(u) is not int or type(v) is not int:
                    raise ValueError(f"Y_{i}({m})^{pair}: position and exponents must be ints")
                if u or v:
                    exp[(i, m)] = (u, v)
        self._exp = exp
        self._key = tuple(sorted([(i, m, u, v) for (i, m), (u, v) in exp.items()]))

    @classmethod
    def _canonical(cls, exp):
        """Wrap an exponent map that is already canonical (int positions and
        pairs, index in the index set, no zero pairs), skipping validation.
        The map is owned by the new monomial afterwards."""
        mono = object.__new__(cls)
        mono._exp = exp
        mono._key = tuple(sorted([(i, m, u, v) for (i, m), (u, v) in exp.items()]))
        return mono

    def exponent(self, i, m):
        return self._exp.get((i, m), PAIR_ZERO)

    def support(self):
        return [(i, m) for i, m, _u, _v in self._key]

    def factors(self):
        """Factors as ``((i, m), (u, v))`` sorted by variable, read off the key."""
        return [((i, m), (u, v)) for i, m, u, v in self._key]

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, ExtMonomial) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"ExtMonomial({self.text()!r})"

    def __mul__(self, other):
        exp = dict(self._exp)
        for pos, (u, v) in other._exp.items():
            if pos in exp:
                pu, pv = exp[pos]
                u, v = u + pu, v + pv
                if not u and not v:
                    del exp[pos]
                    continue
            exp[pos] = (u, v)
        return ExtMonomial._canonical(exp)

    def inverse(self):
        return ExtMonomial._canonical({pos: pair_neg(pair) for pos, pair in self._exp.items()})

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
        (_u1, v1), (_u2, v2) = self.wt_pairs()
        return (v1, v2)

    def scan(self, i):
        """Prefix-sum extrema for index ``i``.

        Returns phi~_i, eps~_i and the arg-max positions ``m_f`` (smallest)
        and ``m_e`` (largest); a position is ``None`` when the corresponding
        operator does not act, in which case the true arg-max set is
        unbounded on that side.

        One pass over the canonical key (index-``i`` entries in increasing
        ``m``).  While the total equals phi~ (``held``), the run of maxima
        reaches the next support position minus 1.  A run still held at the
        last position means eps~ = 0, so ``m_e`` is not read from it.
        """
        check_index(i)
        tu = tv = pu = pv = 0  # running total and phi~, both the empty sum
        first = last = None  # first and last position holding phi~
        held = False
        for j, m, u, v in self._key:
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
            return ScanResult(PAIR_ZERO, PAIR_ZERO, None, None)
        phi_pair, eps_pair = (pu, pv), (pu - tu, pv - tv)
        m_f = first if phi_pair > PAIR_ZERO else None
        m_e = last if eps_pair > PAIR_ZERO else None
        return ScanResult(phi_pair, eps_pair, m_f, m_e)

    def phi_pair(self, i):
        return self.scan(i).phi_pair

    def eps_pair(self, i):
        return self.scan(i).eps_pair

    def phi(self, i):
        return self.scan(i).phi_pair[1]

    def eps(self, i):
        return self.scan(i).eps_pair[1]

    def f(self, i):
        res = self.scan(i)
        if res.phi_pair == PAIR_ZERO:
            return None
        return self * a_monomial(i, res.m_f, -1)

    def e(self, i):
        res = self.scan(i)
        if res.eps_pair == PAIR_ZERO:
            return None
        return self * a_monomial(i, res.m_e, +1)

    # -- serialization ---------------------------------------------------

    def text(self):
        if not self._exp:
            return "1"
        parts = [f"Y_{i}({m})^({u},{v})" for (i, m), (u, v) in self.factors()]
        return " ".join(parts)

    def to_json(self):
        return [
            {"i": i, "m": m, "u": u, "v": v} for (i, m), (u, v) in self.factors()
        ]

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, list):
            raise ValueError(f"expected a JSON array of factors, got {type(obj).__name__}")
        exp = {}
        for rec in obj:
            rec = read_json_ints(rec, _FACTOR_KEYS)
            pos = (rec["i"], rec["m"])
            exp[pos] = pair_add(exp.get(pos, PAIR_ZERO), (rec["u"], rec["v"]))
        return cls(exp)


def a_monomial(i, m, sign=1):
    """The monomial ``A_i(m)^sign`` in the c_12 = 1, c_21 = 0 convention.

    A_1(m) = Y_1(m)^(0,1) Y_1(m+1)^(0,1) Y_2(m)^(0,-1)
    A_2(m) = Y_2(m)^(0,1) Y_2(m+1)^(0,1) Y_1(m+1)^(0,-3)
    """
    if type(i) is not int or i not in INDEX_SET or type(m) is not int:
        raise ValueError(f"A_i(m) needs i in (1, 2) and an int m, got i={i!r}, m={m!r}")
    s = 1 if sign > 0 else -1
    exp = {(i, m): (0, s), (i, m + 1): (0, s)}
    for j in INDEX_SET:
        if j != i:
            exp[(j, m + C_SHIFT[(j, i)])] = (0, s * CARTAN[(j, i)])
    return ExtMonomial._canonical(exp)


def highest_monomial(p1=1, p2=1, r=0):
    """The dominant seed ``Y_1(r-1)^(p1,0) Y_2(r-2)^(p2,0)``."""
    return ExtMonomial({(1, r - 1): (p1, 0), (2, r - 2): (p2, 0)})


def classify_seed(monomial):
    """Classify a monomial killed by every raising operator.

    Returns ``("highest", (p1, p2))`` when wt~ = sum (0, p_i) Lambda_i with
    p_i >= 0 (seed of a highest weight crystal), ``("binf", (p1, p2))`` when
    wt~ = sum (p_i, 0) Lambda_i with p_i > 0 (seed of an infinity crystal),
    and ``("neither", None)`` otherwise.
    """
    for i in INDEX_SET:
        if monomial.e(i) is not None:
            return ("neither", None)
    (u1, v1), (u2, v2) = monomial.wt_pairs()
    if u1 == 0 and u2 == 0 and v1 >= 0 and v2 >= 0:
        return ("highest", (v1, v2))
    if v1 == 0 and v2 == 0 and u1 > 0 and u2 > 0:
        return ("binf", (u1, u2))
    return ("neither", None)
