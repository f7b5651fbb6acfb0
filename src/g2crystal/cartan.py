"""G2 Cartan datum, weight arithmetic, extended exponent pairs, and the
shared count-vector core.

Every module in the package takes its conventions from here.  The index set
is I = {1, 2} with alpha_1 the short root, fixed by

    <h_1, alpha_1> = 2,   <h_1, alpha_2> = -3,
    <h_2, alpha_1> = -1,  <h_2, alpha_2> = 2.

Weights are stored in fundamental-weight coordinates ``(w1, w2)`` meaning
``w1*Lambda_1 + w2*Lambda_2``; simple-root coordinates are computed on
demand (the change of basis is unimodular, so both directions stay in
integers).

Extended exponents are pairs ``(u, v)`` of integers ordered
lexicographically; plain tuples already compare that way, so pair
arithmetic lives in the helper functions below.  An extended weight is one
pair per fundamental weight.

Count vectors
-------------
Elements of M(infinity) and marginally large tableaux are both stored as
the seven counts ``(b2, b3, b0, b3bar, b2bar, b1bar, b3low)``: nonnegative
integers with ``b0 <= 1``.  :class:`CountVector` holds that storage, its
validation and its JSON reader (which bounds each count by
:data:`MAX_JSON_COUNT`, an input guard); :func:`reduce_signature` is the
(0,1) cancellation that every signature rule ends with.  It works on runs of
equal symbols, so a signature rule costs the same at any count.  The rules
that build the run-length signature words and act on them stay with each
realization.

Crystal element contract
------------------------
The element classes of the realization modules all provide the same duck
interface, which the graph and verification layers rely on:

* ``f(i)`` / ``e(i)``: Kashiwara operators, returning a new element or
  ``None`` for the crystal zero,
* ``wt()``: weight in Lambda-coordinates, ``eps(i)``/``phi(i)``: integers,
* ``key()``: hashable, sortable canonical encoding,
* ``text()``: canonical one-line rendering,
* ``to_json()`` and classmethod ``from_json(obj)``.

All of them are immutable values; everything here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

INDEX_SET = (1, 2)

# a_ij = <h_i, alpha_j>
CARTAN = {(1, 1): 2, (1, 2): -3, (2, 1): -1, (2, 2): 2}

# Monomial convention constants c_ij with c_12 + c_21 = 1.
C_SHIFT = {(1, 2): 1, (2, 1): 0}

PAIR_ZERO = (0, 0)

# Simple roots in Lambda-coordinates: alpha_j = sum_i a_ij Lambda_i.
SIMPLE_ROOTS = {1: (2, -1), 2: (-3, 2)}

# Positive roots of G2 in simple-root coordinates (a, b) = a*alpha_1 + b*alpha_2.
POSITIVE_ROOTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))


def pair_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def pair_neg(p):
    return (-p[0], -p[1])


def pair_scale(p, c):
    return (c * p[0], c * p[1])


def weight_sub(w, x):
    return (w[0] - x[0], w[1] - x[1])


def simple_root(i):
    return SIMPLE_ROOTS[i]


def pairing(i, w):
    """Evaluate <h_i, w> for a weight in Lambda-coordinates."""
    return w[i - 1]


def weight_to_roots(w):
    """Write ``w = a*alpha_1 + b*alpha_2`` and return ``(a, b)``.

    The Cartan matrix has determinant 1, so the coefficients are integers
    for every integral weight.
    """
    w1, w2 = w
    return (2 * w1 + 3 * w2, w1 + 2 * w2)


def roots_to_weight(a, b):
    """Inverse of :func:`weight_to_roots`; accepts rational coefficients."""
    w1 = 2 * a - 3 * b
    w2 = -a + 2 * b
    if isinstance(w1, Fraction):
        if w1.denominator == 1 and w2.denominator == 1:
            return (int(w1), int(w2))
    return (w1, w2)


def read_json_ints(obj, defaults):
    """Strict reader of one element-JSON object.

    ``defaults`` maps every known key to the value taken when the key is
    omitted, or to ``None`` when the key is required.  Unknown keys and
    values that are not JSON integers (booleans, floats, strings, ...) are
    rejected with :class:`ValueError`.  Returns a dict over all known keys.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in defaults:
            raise ValueError(f"unknown key {key!r}; expected keys {', '.join(defaults)}")
    values = {**defaults, **obj}
    for key, value in values.items():
        if key not in obj and value is None:
            raise ValueError(f"missing key {key!r}")
        if type(value) is not int:
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return values


def reduce_signature(runs):
    """Cancel (0,1) adjacencies in a word of runs ``(symbol, tag, mult)`` until
    it reads ones followed by zeros, ``min(mult)`` symbols at a time.

    Runs with ``mult`` 0 are skipped.  A surviving run keeps its tag and the
    number of its symbols left: a zeros run keeps its first ``mult`` symbols,
    a ones run its last ``mult``, since each 1 cancels the nearest 0 to its
    left.  The cost is linear in the number of runs, whatever their lengths.
    """
    reduced = []
    for sym, tag, mult in runs:
        while sym == 1 and mult and reduced and reduced[-1][0] == 0:
            _zero, zero_tag, zeros = reduced.pop()
            cancelled = min(mult, zeros)
            mult -= cancelled
            if zeros > cancelled:
                reduced.append((0, zero_tag, zeros - cancelled))
        if mult:
            reduced.append((sym, tag, mult))
    return reduced


# Largest count accepted from element JSON, kept as an input guard; direct
# construction is unbounded.
MAX_JSON_COUNT = 100_000


@dataclass(frozen=True)
class CountVector:
    """The seven nonnegative counts shared by M(infinity) and the tableaux."""

    b2: int = 0
    b3: int = 0
    b0: int = 0
    b3bar: int = 0
    b2bar: int = 0
    b1bar: int = 0
    b3low: int = 0

    def __post_init__(self):
        counts = self.counts()
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {counts}")
        if self.b0 > 1:
            raise ValueError(f"b0 must be 0 or 1, got {self.b0}")

    def counts(self):
        return (self.b2, self.b3, self.b0, self.b3bar, self.b2bar, self.b1bar, self.b3low)

    @classmethod
    def from_json(cls, obj):
        """Read counts strictly and bound them by :data:`MAX_JSON_COUNT`."""
        values = read_json_ints(obj, {f.name: f.default for f in fields(cls)})
        for name in COUNT_FIELDS:
            if values[name] > MAX_JSON_COUNT:
                raise ValueError(
                    f"{name!r} must be at most {MAX_JSON_COUNT}, got {values[name]}"
                )
        return cls(**values)


COUNT_FIELDS = tuple(f.name for f in fields(CountVector))
