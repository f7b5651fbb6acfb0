"""Tensor-product realization of B(infinity) through elementary crystals.

The elementary crystal attached to an index ``i`` is ``{b_i(k) | k in Z}``
with wt b_i(k) = k*alpha_i, phi_i = k, eps_i = -k, and both maps equal to
minus infinity for the other index.  Elements of the realization are

    u_inf (x) b_1(-k12bar) (x) b_2(-k13bar) (x) b_1(-k13)
          (x) b_2(-k12) (x) b_1(-k11) (x) b_2(-k22)

with six nonnegative integers constrained by the chain

    0 <= k12bar <= k13bar <= k13/2 <= k12 <= k11,     k22 >= 0.

Kashiwara operators are evaluated by the tensor product rule: with
``a_k = eps_i(b^k) - sum_{v<k} <h_i, wt(b^v)>`` over the seven factors
(the head ``u_inf`` contributing eps = 0 and weight 0), the lowering
operator acts at the unique position whose ``a_k`` is weakly maximal
against everything before it and strictly maximal against everything after
it, and the raising operator at the mirror-image position.  Raising at the
head factor is the crystal zero.

Minus infinity is the ``None`` sentinel; it is compared, never added.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cartan import WEIGHT_ZERO, pair_scale, pairing, simple_root, weight_add

# Field name and factor index for each tensor slot, in tensor order.
_SLOTS = (("k12bar", 1), ("k13bar", 2), ("k13", 1), ("k12", 2), ("k11", 1), ("k22", 2))


@dataclass(frozen=True)
class ElementaryElement:
    """The element ``b_index(k)`` of an elementary crystal."""

    index: int
    k: int = 0

    def wt(self):
        return pair_scale(simple_root(self.index), self.k)

    def eps(self, i):
        return -self.k if i == self.index else None

    def phi(self, i):
        return self.k if i == self.index else None

    def f(self, i):
        return replace(self, k=self.k - 1) if i == self.index else None

    def e(self, i):
        return replace(self, k=self.k + 1) if i == self.index else None

    def text(self):
        return f"b{self.index}({self.k})"


def _ge(x, y):
    """Weak comparison with ``None`` below every integer."""
    if x is None:
        return y is None
    return y is None or x >= y


def _gt(x, y):
    if x is None:
        return False
    return y is None or x > y


@dataclass(frozen=True)
class CliffElement:
    """Counts ``(k12bar, k13bar, k13, k12, k11, k22)`` of the six factors."""

    k12bar: int = 0
    k13bar: int = 0
    k13: int = 0
    k12: int = 0
    k11: int = 0
    k22: int = 0

    def __post_init__(self):
        if any(c < 0 for c in self.ks()):
            raise ValueError(f"negative factor count in {self.ks()}")

    def ks(self):
        return (self.k12bar, self.k13bar, self.k13, self.k12, self.k11, self.k22)

    def key(self):
        return self.ks()

    def is_member(self):
        """The defining inequality chain (the k13/2 comparisons cleared of
        denominators)."""
        return (
            0 <= self.k12bar <= self.k13bar
            and 2 * self.k13bar <= self.k13 <= 2 * self.k12
            and self.k12 <= self.k11
            and self.k22 >= 0
        )

    def factors(self):
        return [ElementaryElement(idx, -getattr(self, name)) for name, idx in _SLOTS]

    # -- tensor product rule ------------------------------------------------

    def a_seq(self, i):
        """The seven ``a_k`` values, ``None`` standing for minus infinity."""
        out = [0]  # head factor u_inf: eps = 0, nothing before it
        acc = 0  # running sum of <h_i, wt(b^v)> over the factors before slot k
        for factor in self.factors():
            e = factor.eps(i)
            out.append(None if e is None else e - acc)
            acc += pairing(i, factor.wt())
        return out

    def _select(self, i, lower):
        """Unique acting position per the tensor rule; 1-based over 7 slots."""
        a = self.a_seq(i)
        n = len(a)
        hits = []
        for k in range(n):
            before = all(_ge(a[k], a[v]) for v in range(k))
            after = all(_gt(a[k], a[v]) for v in range(k + 1, n))
            if lower:
                if before and after:
                    hits.append(k + 1)
            else:
                strict_before = all(_gt(a[k], a[v]) for v in range(k))
                weak_after = all(_ge(a[k], a[v]) for v in range(k + 1, n))
                if strict_before and weak_after:
                    hits.append(k + 1)
        if len(hits) != 1:
            raise RuntimeError(f"tensor rule selected {hits} on {self} for i={i}")
        return hits[0]

    def f(self, i):
        pos = self._select(i, lower=True)
        if pos <= 1:
            raise RuntimeError("the head factor is never lowered on members")
        name = _SLOTS[pos - 2][0]
        return replace(self, **{name: getattr(self, name) + 1})

    def e(self, i):
        pos = self._select(i, lower=False)
        if pos == 1:
            return None
        name = _SLOTS[pos - 2][0]
        return replace(self, **{name: getattr(self, name) - 1})

    # -- structure maps -------------------------------------------------------

    def wt(self):
        w = WEIGHT_ZERO
        for factor in self.factors():
            w = weight_add(w, factor.wt())
        return w

    def eps(self, i):
        return max(a for a in self.a_seq(i) if a is not None)

    def phi(self, i):
        return self.eps(i) + pairing(i, self.wt())

    # -- serialization -----------------------------------------------------------

    def text(self):
        return "u∞ ⊗ " + " ⊗ ".join(f.text() for f in self.factors())

    def to_json(self):
        return {
            "k12bar": self.k12bar,
            "k13bar": self.k13bar,
            "k13": self.k13,
            "k12": self.k12,
            "k11": self.k11,
            "k22": self.k22,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(**{k: int(v) for k, v in obj.items()})


def highest_cliff():
    """The image of the highest weight element: all factor counts zero."""
    return CliffElement()
