"""The distinguished monomial set M(infinity) and its shifted family.

Elements are stored in the canonical product form

    X_1(r-1)^(p1+p2, -(b2+b3+b0+b3bar+b2bar+b1bar))
    X_2(r-1)^(0,b2) X_3(r-1)^(0,b3) X_0(r-1)^(0,b0)
    X_3b(r-1)^(0,b3bar) X_2b(r-1)^(0,b2bar) X_1b(r-1)^(0,b1bar)
    X_2(r-2)^(p2,-b3low) X_3(r-2)^(0,b3low)

with seven nonnegative counts (``b0 <= 1``) and family parameters
``(p1, p2, r)``; the defaults ``(1, 1, 0)`` give M(infinity) proper.  The
``X`` change of variables is one table, ``_X_TO_Y``, that lists each
letter's ``Y`` factors as ``(i, offset, power)`` rows; :func:`x_monomial`
and ``to_monomial`` read it.  Membership of a raw monomial is one read of
its exponents at the eight positions a member can use (``_member_counts``),
shared by :func:`is_minf_monomial` and :func:`minf_from_monomial`.

The structure maps are read off the counts without expanding: the weight is
``CountVector.wt``, linear in them and so independent of ``(p1, p2, r)``,
``eps_i`` is the number of 1s surviving in the reduced i-signature, and
``phi_i = eps_i + <h_i, wt>``.
The verification suites compare them with the maps of the expanded
Y-monomial, which stays the independent oracle.

Kashiwara operators are evaluated by the signature rule: write a word of
1s and 0s under an ordered list of components, cancel (0,1) adjacencies,
and read the component owning the leftmost surviving 0 (for the lowering
operator) or the rightmost surviving 1 (for the raising operator).  The
word is held as at most seven runs of equal symbols, one per component and
symbol, and the cancellation acts on runs, so the cost does not grow with
the counts; ``signature(i)`` is the reduced word, as those runs, that the
operators and ``eps_i`` read; only ``eps_i`` records it, for ``phi_i``,
``f_i`` and ``e_i`` to reuse.  Each case names the two counts (``None``
for the X_1 body) between which ``CountElement._apply`` moves one unit, a
step of the chain 1 -1-> 2 -2-> 3 -1-> 0 -1-> 3b -2-> 2b -1-> 1b; ``f_i``
takes its step from one table and ``e_i`` from the inverted one.
Each step is multiplication by an explicit ``A_i(m)^{+-1}``, so the rule
agrees with the generic monomial operators; the verification suites check
that equivalence exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CountVector, check_index
from .monomials import ExtMonomial, _build, check_monomial


# The X -> Y change of variables: X_letter(m)^(u,v) is the product of
# Y_i(m + offset)^(power*u, power*v) over the letter's rows (i, offset, power).
_X_TO_Y = {
    "1": ((1, 0, 1),),
    "2": ((2, 0, 1), (1, 1, -1)),
    "3": ((1, 1, 2), (2, 1, -1)),
    "0": ((1, 1, 1), (1, 2, -1)),
    "3b": ((2, 1, 1), (1, 2, -2)),
    "2b": ((1, 2, 1), (2, 2, -1)),
    "1b": ((1, 3, -1),),
}


def x_monomial(letter, m, u, v):
    """Expand ``X_letter(m)^(u,v)`` into Y-variables."""
    if type(letter) is not str or letter not in _X_TO_Y:
        raise ValueError(f"unknown X letter {letter!r}")
    if not (type(m) is type(u) is type(v) is int):
        raise ValueError(f"X_{letter}({m!r})^({u!r}, {v!r}): position and exponents must be ints")
    return ExtMonomial({(i, m + offset): (power * u, power * v)
                        for i, offset, power in _X_TO_Y[letter]})


@dataclass(frozen=True)
class MinfElement(CountVector):
    """Canonical count vector of an element of M(p1, p2; r; infinity)."""

    p1: int = 1
    p2: int = 1
    r: int = 0

    def __post_init__(self):
        CountVector.__post_init__(self)  # cheaper than super() on every successor
        if not (type(self.p1) is type(self.p2) is type(self.r) is int):
            raise ValueError(f"family parameters must be integers, got {self.params()}")
        if self.p1 < 1 or self.p2 < 1:
            raise ValueError("family parameters p1, p2 must be positive")

    # Bound here as well as inherited: bench/tracer.py traces a class's own __dict__.
    wt, signature, eps, phi, to_json = (CountVector.wt, CountVector.signature,
                                        CountVector.eps, CountVector.phi, CountVector.to_json)

    def params(self):
        return (self.p1, self.p2, self.r)

    def key(self):
        return self.counts() + self.params()

    def with_params(self, p1, p2, r):
        return MinfElement(*self.counts(), p1, p2, r)

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
        return _build({}, [(i, m + offset, power * u, power * v)
                           for letter, m, u, v in self.x_factors() if u or v
                           for i, offset, power in _X_TO_Y[letter]])

    # -- signature-rule operators ------------------------------------------

    def signature_word(self, i):
        """The i-signature word as runs ``(symbol, component, mult)``.

        It is emitted over the component order X_1b X_2b X_3b X_0 X_3 X_2 for
        i = 1 (ones under X_1b, X_3b twice per unit, X_0, X_2; zeros under
        X_2b, X_0, X_3 twice per unit) and X_2b X_3b X_3 X_2 X_3low for i = 2.
        """
        check_index(i)
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
        return (
            (1, "2b", self.b2bar),
            (0, "3b", self.b3bar),
            (1, "3", self.b3),
            (0, "2", self.b2),
            (1, "3low", self.b3low),
        )

    def f(self, i):
        """Lowering operator; total on the family (never the crystal zero)."""
        source = next((tag for sym, tag, _n in self.signature(i) if sym == 0), None)
        return self._apply(_SLOT.get(source), _SLOT.get(_F_STEP[i][source]))

    def e(self, i):
        """Raising operator; ``None`` when no 1 survives in the signature."""
        ones = [tag for sym, tag, _n in self.signature(i) if sym == 1]
        if not ones:
            return None
        return self._apply(_SLOT.get(ones[-1]), _SLOT.get(_E_STEP[i][ones[-1]]))

    # -- serialization -----------------------------------------------------

    def text(self):
        """The factors of :meth:`x_factors` but the ``(0, 0)`` ones, read off the counts: X_1 and
        X_2(r-2) never vanish (``p1 + p2 >= 2``, ``p2 >= 1``), the others print when nonzero."""
        m, body = self.r - 1, (self.b2, self.b3, self.b0, self.b3bar, self.b2bar, self.b1bar)
        parts = [f"X_1({m})^({self.p1 + self.p2},{-sum(body)})"]
        for letter, n in zip(("2", "3", "0", "3b", "2b", "1b"), body):
            if n:
                parts.append(f"X_{letter}({m})^(0,{n})")
        parts.append(f"X_2({m - 1})^({self.p2},{-self.b3low})")
        if self.b3low:
            parts.append(f"X_3({m - 1})^(0,{self.b3low})")
        return " ".join(parts)


# Component owning the leftmost surviving 0 -> component f_i moves one unit
# into; ``None`` is the X_1 body (no 0 survives).
_F_STEP = {
    1: {None: "2", "2b": "1b", "0": "3b", "3": "0"},
    2: {None: "3low", "3b": "2b", "2": "3"},
}
_E_STEP = {i: {dst: src for src, dst in steps.items()} for i, steps in _F_STEP.items()}
# Component -> position of its count among the fields.
_SLOT = {"2": 0, "3": 1, "0": 2, "3b": 3, "2b": 4, "1b": 5, "3low": 6}


def highest_minf(p1=1, p2=1, r=0):
    return MinfElement(p1=p1, p2=p2, r=r)


def _member_counts(monomial, p1, p2, r):
    """The seven counts of a member of M(p1, p2; r; infinity), or ``None``
    for a non-member; ``ValueError`` for a non-monomial, then
    ``MinfElement``'s for parameters that name no family.

    Eight reads, at Y_1(r-1..r+2) and Y_2(r-2..r+1): the support fits when
    the nonzero reads make up the whole key, the u-components must read
    ``(p1, 0, 0, 0, p2, 0, 0, 0)``, and the v-components must meet the two
    linear relations.  Their sum is s1 + s2 mod 2, so they also give
    s1 = a1^r + a2^{r-1} - a2^{r-2} and s2 = -a1^{r+1} - a2^{r+1} the shared
    parity that fixes b0 = s1 mod 2.  The counts of the inverse change of
    variables must then all be nonnegative:

    b2 = a2^{r-1} - a2^{r-2},  b2bar = -a2^{r+1},  b1bar = -a1^{r+2},
    b3low = -a2^{r-2},  2*b3 = s1 - b0,  2*b3bar = s2 - b0.
    """
    check_monomial(monomial)
    highest_minf(p1, p2, r)  # MinfElement's family rule
    reads = ([monomial.exponent(1, m) for m in range(r - 1, r + 3)]
             + [monomial.exponent(2, m) for m in range(r - 2, r + 2)])
    if sum(map(any, reads)) != len(monomial.key()):
        return None
    if [u for u, _v in reads] != [p1, 0, 0, 0, p2, 0, 0, 0]:
        return None
    a1m1, a10, a11, a12, a2m2, a2m1, a20, a21 = [v for _u, v in reads]
    if ((a1m1 - a11 - a12) + (2 * a2m2 + a2m1 - a20 - 2 * a21) != 0
            or (a1m1 + a10 - a12) + (a2m2 + 2 * a2m1 + a20 - a21) != 0):
        return None
    s1, s2 = a10 + a2m1 - a2m2, -a11 - a21
    b0 = s1 % 2
    counts = {"b2": a2m1 - a2m2, "b3": (s1 - b0) // 2, "b0": b0, "b3bar": (s2 - b0) // 2,
              "b2bar": -a21, "b1bar": -a12, "b3low": -a2m2}
    return counts if min(counts.values()) >= 0 else None


def is_minf_monomial(monomial, p1=1, p2=1, r=0):
    """Membership of a raw monomial in M(p1, p2; r; infinity): eight exponent
    reads with the u-pattern ``(p1, 0, 0, 0, p2, 0, 0, 0)``, two linear
    relations (which fix the parity) and nonnegative counts; ``ValueError``
    for parameters that name no family."""
    return _member_counts(monomial, p1, p2, r) is not None


def minf_from_monomial(monomial, p1=1, p2=1, r=0):
    """Canonical count vector of a member; ``ValueError`` otherwise."""
    counts = _member_counts(monomial, p1, p2, r)
    if counts is None:
        raise ValueError(f"not a member of M({p1},{p2};{r};infinity): {monomial.text()}")
    return MinfElement(**counts, p1=p1, p2=p2, r=r)
