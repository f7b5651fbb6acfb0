"""The distinguished monomial set M(infinity) and its shifted family.

Elements are stored in the canonical product form

    X_1(r-1)^(p1+p2, -(b2+b3+b0+b3bar+b2bar+b1bar))
    X_2(r-1)^(0,b2) X_3(r-1)^(0,b3) X_0(r-1)^(0,b0)
    X_3b(r-1)^(0,b3bar) X_2b(r-1)^(0,b2bar) X_1b(r-1)^(0,b1bar)
    X_2(r-2)^(p2,-b3low) X_3(r-2)^(0,b3low)

with seven nonnegative counts (``b0 <= 1``) and family parameters
``(p1, p2, r)``; the defaults ``(1, 1, 0)`` give M(infinity) proper.  The
``X`` change of variables expands into ``Y`` variables via
:func:`x_monomial`, and membership of a raw monomial is decided by the
support shape and three conditions on the exponents, which
:func:`minf_from_monomial` checks while it inverts the change of variables.

The structure maps are read off the counts without expanding: the weight is
linear in them (and independent of ``(p1, p2, r)``), ``eps_i`` is the number
of 1s surviving in the reduced i-signature, and ``phi_i = eps_i + <h_i, wt>``.
The verification suites compare them with the maps of the expanded
Y-monomial, which stays the independent oracle.

Kashiwara operators are evaluated by the signature rule: write a word of
1s and 0s under an ordered list of components, cancel (0,1) adjacencies,
and read the component owning the leftmost surviving 0 (for the lowering
operator) or the rightmost surviving 1 (for the raising operator).  The
word is held as at most seven runs of equal symbols, one per component and
symbol, and the cancellation acts on runs, so the cost does not grow with
the counts.  Each case moves one unit between two counts, a step of the
fundamental chain 1 -1-> 2 -2-> 3 -1-> 0 -1-> 3b -2-> 2b -1-> 1b; ``f_i``
takes its step from one table and ``e_i`` from the inverted table, so
``e_i`` undoes ``f_i``.
Each step is multiplication by an explicit ``A_i(m)^{+-1}``, so the rule
agrees with the generic monomial operators; the verification suites check
that equivalence exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .cartan import PAIR_ZERO, CountVector, pair_add, pairing, reduce_signature
from .monomials import ExtMonomial


def x_monomial(letter, m, u, v):
    """Expand ``X_letter(m)^(u,v)`` into Y-variables."""
    return ExtMonomial(_x_exponents(letter, m, u, v))


def _x_exponents(letter, m, u, v):
    """Y-exponent map of ``X_letter(m)^(u,v)``, zero pairs included."""
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


@dataclass(frozen=True)
class MinfElement(CountVector):
    """Canonical count vector of an element of M(p1, p2; r; infinity)."""

    p1: int = 1
    p2: int = 1
    r: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.p1 < 1 or self.p2 < 1:
            raise ValueError("family parameters p1, p2 must be positive")

    def params(self):
        return (self.p1, self.p2, self.r)

    def key(self):
        return self.counts() + self.params()

    def with_params(self, p1, p2, r):
        return replace(self, p1=p1, p2=p2, r=r)

    # -- change of variables ----------------------------------------------

    def x_factors(self):
        """The nine ``(letter, m, u, v)`` factors of the canonical product."""
        body = self.b2 + self.b3 + self.b0 + self.b3bar + self.b2bar + self.b1bar
        return [
            ("1", self.r - 1, self.p1 + self.p2, -body),
            ("2", self.r - 1, 0, self.b2),
            ("3", self.r - 1, 0, self.b3),
            ("0", self.r - 1, 0, self.b0),
            ("3b", self.r - 1, 0, self.b3bar),
            ("2b", self.r - 1, 0, self.b2bar),
            ("1b", self.r - 1, 0, self.b1bar),
            ("2", self.r - 2, self.p2, -self.b3low),
            ("3", self.r - 2, 0, self.b3low),
        ]

    def to_monomial(self):
        exp = {}
        for letter, m, u, v in self.x_factors():
            for pos, pair in _x_exponents(letter, m, u, v).items():
                exp[pos] = pair_add(exp.get(pos, PAIR_ZERO), pair)
        return ExtMonomial._canonical(
            {pos: pair for pos, pair in exp.items() if pair != PAIR_ZERO}
        )

    # -- structure maps (closed forms on the counts) -------------------------

    def wt(self):
        """Weight in Lambda-coordinates; the family parameters cancel out."""
        return (
            -2 * self.b2 + self.b3 - self.b0 - 3 * self.b3bar - 2 * self.b1bar
            + 3 * self.b3low,
            self.b2 - self.b3 + self.b3bar - self.b2bar - 2 * self.b3low,
        )

    def eps(self, i):
        return sum(n for sym, _tag, n in self._reduced(i) if sym == 1)

    def phi(self, i):
        return self.eps(i) + pairing(i, self.wt())

    # -- signature-rule operators ------------------------------------------

    def signature_word(self, i):
        """The i-signature word as runs ``(symbol, component, mult)``.

        It is emitted over the component order X_1b X_2b X_3b X_0 X_3 X_2 for
        i = 1 (ones under X_1b, X_3b twice per unit, X_0, X_2; zeros under
        X_2b, X_0, X_3 twice per unit) and X_2b X_3b X_3 X_2 X_3low for i = 2.
        """
        if i == 1:
            return (
                (1, "1b", self.b1bar),
                (0, "2b", self.b2bar),
                (1, "3b", 2 * self.b3bar),
                (1, "0", self.b0),
                (0, "0", self.b0),
                (0, "3", 2 * self.b3),
                (1, "2", self.b2),
            )
        if i == 2:
            return (
                (1, "2b", self.b2bar),
                (0, "3b", self.b3bar),
                (1, "3", self.b3),
                (0, "2", self.b2),
                (1, "3low", self.b3low),
            )
        raise ValueError(f"index must be 1 or 2, got {i}")

    def _reduced(self, i):
        return reduce_signature(self.signature_word(i))

    def signature(self, i):
        """Reduced i-signature, one ``(symbol, component)`` pair per
        surviving symbol: the expansion of the reduced runs."""
        return [(sym, tag) for sym, tag, n in self._reduced(i) for _ in range(n)]

    def f(self, i):
        """Lowering operator; total on the family (never the crystal zero)."""
        source = next((tag for sym, tag, _n in self._reduced(i) if sym == 0), None)
        return self._move(source, _F_STEP[i][source])

    def e(self, i):
        """Raising operator; ``None`` when no 1 survives in the signature."""
        ones = [tag for sym, tag, _n in self._reduced(i) if sym == 1]
        if not ones:
            return None
        return self._move(ones[-1], _E_STEP[i][ones[-1]])

    def _move(self, source, target):
        """Take one from ``source``'s count and add one to ``target``'s;
        ``None`` is the X_1 body, which has no count."""
        change = {}
        if source is not None:
            change[_COUNT[source]] = getattr(self, _COUNT[source]) - 1
        if target is not None:
            change[_COUNT[target]] = getattr(self, _COUNT[target]) + 1
        return replace(self, **change)

    # -- serialization -----------------------------------------------------

    def text(self):
        parts = [
            f"X_{letter}({m})^({u},{v})"
            for letter, m, u, v in self.x_factors()
            if (u, v) != (0, 0)
        ]
        return " ".join(parts)

    def to_json(self):
        return dict(zip(_JSON_FIELDS, self.counts() + self.params()))


_JSON_FIELDS = tuple(f.name for f in fields(MinfElement))

# Component owning the leftmost surviving 0 -> component f_i moves one unit
# into; ``None`` is the X_1 body (no 0 survives).
_F_STEP = {
    1: {None: "2", "2b": "1b", "0": "3b", "3": "0"},
    2: {None: "3low", "3b": "2b", "2": "3"},
}
_E_STEP = {i: {dst: src for src, dst in steps.items()} for i, steps in _F_STEP.items()}
_COUNT = {"2": "b2", "3": "b3", "0": "b0", "3b": "b3bar", "2b": "b2bar", "1b": "b1bar",
          "3low": "b3low"}


def highest_minf(p1=1, p2=1, r=0):
    return MinfElement(p1=p1, p2=p2, r=r)


def _member_counts(monomial, p1, p2, r):
    """The seven counts of a member of M(p1, p2; r; infinity), or ``None``
    for a non-member.

    Membership is the support shape and the three defining conditions on
    the ordinary exponents: the sign constraints, the two linear relations,
    and the shared-parity nonnegativity constraint.  The counts follow by
    the inverse change of variables

    b2 = a2^{r-1} - a2^{r-2},  b2bar = -a2^{r+1},  b1bar = -a1^{r+2},
    b3low = -a2^{r-2}, and the parity split fixing b0 in {0, 1} with
    2*b3 = a1^r + a2^{r-1} - a2^{r-2} - b0 and 2*b3bar = -a1^{r+1} - a2^{r+1} - b0.
    """
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
    for (i, m) in monomial.support():
        if (i, m) not in allowed:
            return None
    a = {}
    for (i, m), u_req in allowed.items():
        u, v = monomial.exponent(i, m)
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


def is_minf_monomial(monomial, p1=1, p2=1, r=0):
    """Membership of a raw monomial in M(p1, p2; r; infinity)."""
    return _member_counts(monomial, p1, p2, r) is not None


def minf_from_monomial(monomial, p1=1, p2=1, r=0):
    """Canonical count vector of a member; ``ValueError`` for a non-member."""
    counts = _member_counts(monomial, p1, p2, r)
    if counts is None:
        raise ValueError(f"not a member of M({p1},{p2};{r};infinity): {monomial.text()}")
    return MinfElement(**counts, p1=p1, p2=p2, r=r)
