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
integers with ``b0 <= 1``; the tensor products store six counts.
:class:`CountElement`, the base of all three, validates ``counts()`` and
writes ``key``, ``phi`` and the JSON (the fields, omitted ones taken from the
highest element) once; every field is read through ``key()``.
:class:`CountVector` adds the seven-count storage, the weight and the reduced
signature with ``eps``; :func:`reduce_signature` is the (0,1) cancellation
that every signature rule ends with.  It works on runs of equal symbols, so a
signature rule costs the same at any count.  The rules that build the
run-length signature words and act on them stay with each realization.

Crystal element contract
------------------------
The four registry classes (``isomorphisms.REALIZATIONS``) share this
interface, their class checked at ``bfs``, ``convert`` and the maps:

* ``f(i)`` / ``e(i)``: Kashiwara operators, returning a new element or
  ``None`` for the crystal zero; a count element's rule only picks the two
  counts that lose and gain a unit, and ``_apply`` alone builds the image,
* ``wt()``: weight in Lambda-coordinates, ``eps(i)``/``phi(i)``: integers,
* ``key()``: hashable, sortable canonical encoding,
* ``text()``: canonical one-line rendering,
* ``to_json()`` and classmethod ``from_json(obj)``.

All of them are immutable values; everything here is a pure function.  A
count element's one record, written only by ``eps``, is invisible to
equality, hashing, ``key``, JSON and pickling.
"""

from __future__ import annotations

from dataclasses import dataclass

INDEX_SET = (1, 2)

# a_ij = <h_i, alpha_j>
CARTAN = {(1, 1): 2, (1, 2): -3, (2, 1): -1, (2, 2): 2}

# Monomial convention constants c_ij with c_12 + c_21 = 1.
C_SHIFT = {(1, 2): 1, (2, 1): 0}

PAIR_ZERO = (0, 0)

# Simple roots in Lambda-coordinates: alpha_j = sum_i a_ij Lambda_i.
SIMPLE_ROOTS = {j: (CARTAN[1, j], CARTAN[2, j]) for j in INDEX_SET}

# Positive roots of G2 in simple-root coordinates (a, b) = a*alpha_1 + b*alpha_2.
POSITIVE_ROOTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))


def pair_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def pair_neg(p):
    return (-p[0], -p[1])


def weight_sub(w, x):
    return (w[0] - x[0], w[1] - x[1])


def check_index(i):
    """Return ``i`` if it is the ``int`` 1 or 2, else raise :class:`ValueError`."""
    if type(i) is not int or i not in INDEX_SET:
        raise ValueError(f"index must be 1 or 2, got {i!r}")
    return i


def simple_root(i):
    check_index(i)
    return SIMPLE_ROOTS[i]


def check_weight(w):
    """Raise :class:`ValueError` unless ``w`` is a tuple or list of two ``int``s."""
    if not (isinstance(w, (tuple, list)) and len(w) == 2 and type(w[0]) is type(w[1]) is int):
        raise ValueError(f"weight must be two ints, got {w!r}")


def pairing(i, w):
    """Evaluate <h_i, w> for a weight ``w``, two ints in Lambda-coordinates."""
    check_index(i)
    check_weight(w)
    return w[i - 1]


def weight_to_roots(w):
    """Write ``w = a*alpha_1 + b*alpha_2`` and return ``(a, b)``.

    The Cartan matrix has determinant 1, so the coefficients are integers
    for every integral weight.
    """
    check_weight(w)
    w1, w2 = w
    return (2 * w1 + 3 * w2, w1 + 2 * w2)


def roots_to_weight(a, b):
    """Inverse of :func:`weight_to_roots`; ``a`` and ``b`` must be ``int``s."""
    if not (type(a) is type(b) is int):
        raise ValueError(f"root coordinates must be ints, got {(a, b)!r}")
    return (2 * a - 3 * b, -a + 2 * b)


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
    left.  The cost is linear in the number of runs, whatever their lengths;
    the survivors come back as a tuple, so no caller can change a record.
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
    return tuple(reduced)


@dataclass(frozen=True)
class CountElement:
    """Base of the count realizations: each subclass gives ``counts()`` and
    ``eps(i)``, and its fields are its JSON; ``phi`` reads the ``wt()`` of
    :class:`CountVector` or of the tensor products.  ``eps(i)`` alone records
    its reduced signature in the slot ``_signatures``, ``None`` before (a set
    slot reads far faster).  ``_apply``, the JSON, pickling and copying read the
    fields through ``key()``: ``vars`` would give each element its own ``__dict__``."""

    __slots__ = ("_signatures",)

    def __reduce__(self):
        return type(self), self.key()

    def __post_init__(self):
        counts = self.counts()
        for c in counts:  # ``bool`` is not an ``int`` count
            if type(c) is not int or c < 0:
                raise ValueError(f"counts must be nonnegative integers, got {counts}")
        object.__setattr__(self, "_signatures", None)  # past the frozen __setattr__

    def key(self):
        return self.counts()

    def _apply(self, lose, gain):
        """The operator image: a unit off field ``lose``, onto ``gain`` (positions
        in ``key()``, ``None`` for none), checked by the constructor."""
        fields = list(self.key())
        if lose is not None:
            fields[lose] -= 1
        if gain is not None:
            fields[gain] += 1
        return type(self)(*fields)

    def phi(self, i):
        return self.eps(i) + self.wt()[i - 1]  # eps has checked i

    def to_json(self):
        return dict(zip(type(self).__match_args__, self.key()))

    @classmethod
    def from_json(cls, obj):
        return cls(**read_json_ints(obj, cls().to_json()))


@dataclass(frozen=True)
class CountVector(CountElement):
    """The seven nonnegative counts shared by M(infinity) and the tableaux."""

    b2: int = 0
    b3: int = 0
    b0: int = 0
    b3bar: int = 0
    b2bar: int = 0
    b1bar: int = 0
    b3low: int = 0

    def __post_init__(self):
        CountElement.__post_init__(self)  # cheaper than super() on every successor
        if self.b0 > 1:
            raise ValueError(f"b0 must be 0 or 1, got {self.b0}")

    def counts(self):
        return (self.b2, self.b3, self.b0, self.b3bar, self.b2bar, self.b1bar, self.b3low)

    def wt(self):
        """Weight in Lambda-coordinates: the counts lower it by positive roots,
        b2 by alpha_1, b3 by alpha_1+alpha_2, b3bar by 3alpha_1+alpha_2, b2bar
        by 3alpha_1+2alpha_2, b3low by alpha_2, and b0 <= 1 and b1bar by once
        and twice 2alpha_1+alpha_2, so the count vectors of a weight are its
        Kostant partitions."""
        return (
            -2 * self.b2 + self.b3 - self.b0 - 3 * self.b3bar - 2 * self.b1bar
            + 3 * self.b3low,
            self.b2 - self.b3 + self.b3bar - self.b2bar - 2 * self.b3low,
        )

    def signature(self, i):
        """Reduced i-signature: the runs ``(symbol, tag, mult)`` of ``signature_word(i)``
        that survive the (0,1) cancellation, ones before zeros; ``eps(i)`` records it."""
        recorded = self._signatures
        if recorded and type(i) is int and i in recorded:  # True and 1.0 hash like 1
            return recorded[i]
        return reduce_signature(self.signature_word(i))

    def eps(self, i):
        sig = self.signature(i)
        if (recorded := self._signatures) is None:
            object.__setattr__(self, "_signatures", recorded := {})
        recorded[i] = sig
        return sum(n for sym, _tag, n in sig if sym == 1)
