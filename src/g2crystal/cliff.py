"""Tensor-product realization of B(infinity) through elementary crystals.

The elementary crystal attached to an index ``i`` is ``{b_i(k) | k in Z}``
with wt b_i(k) = k*alpha_i, phi_i = k, eps_i = -k, and both maps equal to
minus infinity for the other index.  Elements of the realization are

    u_inf (x) b_1(-k12bar) (x) b_2(-k13bar) (x) b_1(-k13)
          (x) b_2(-k12) (x) b_1(-k11) (x) b_2(-k22)

with six nonnegative integers constrained by the chain, which the
constructor checks, so wherever an element is built:

    0 <= k12bar <= k13bar <= k13/2 <= k12 <= k11,     k22 >= 0.

Kashiwara operators are evaluated by the tensor product rule: with
``a_k = eps_i(b^k) - sum_{v<k} <h_i, wt(b^v)>`` over the seven factors
(the head ``u_inf`` contributing eps = 0 and weight 0), the lowering
operator acts at the last position whose ``a_k`` is maximal and the raising
operator at the first such position.  This is the rule "weakly maximal
against everything before, strictly maximal against everything after" (and
its mirror image for raising) read off directly.  Raising at the head
factor is the crystal zero.

The factors are read from the counts, and no factor objects are built: the
slot ``b_j(-k)`` has eps_j = k, eps_i = minus infinity for i != j, and
<h_i, wt> = -k * a_ij.  Minus infinity is the ``None`` sentinel; it is
never added, and never maximal because the head's ``a_k`` is 0.  Only
``eps`` records ``a_seq(i)``, for the operators and ``phi`` to reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CARTAN, CountElement, check_index

# Field name and factor index for each tensor slot, in tensor order.
_SLOTS = (("k12bar", 1), ("k13bar", 2), ("k13", 1), ("k12", 2), ("k11", 1), ("k22", 2))
_LABEL = "u∞ ⊗ b1(%d) ⊗ b2(%d) ⊗ b1(%d) ⊗ b2(%d) ⊗ b1(%d) ⊗ b2(%d)"  # text(), in tensor order


@dataclass(frozen=True)
class CliffElement(CountElement):
    """Counts ``(k12bar, k13bar, k13, k12, k11, k22)`` of the six factors, refused off the chain."""

    k12bar: int = 0
    k13bar: int = 0
    k13: int = 0
    k12: int = 0
    k11: int = 0
    k22: int = 0

    # Bound here as well as inherited: bench/tracer.py traces a class's own __dict__.
    key, phi, to_json = CountElement.key, CountElement.phi, CountElement.to_json

    def __post_init__(self):
        CountElement.__post_init__(self)  # cheaper than super() on every successor
        if not self.is_member():
            raise ValueError(f"not in the realization: {self.text()}")

    def counts(self):
        return (self.k12bar, self.k13bar, self.k13, self.k12, self.k11, self.k22)

    def is_member(self):
        """The defining chain, doubled to clear the k13/2 of its denominator."""
        return (0 <= 2 * self.k12bar <= 2 * self.k13bar <= self.k13 <= 2 * self.k12
                <= 2 * self.k11 and self.k22 >= 0)

    # -- tensor product rule ------------------------------------------------

    def a_seq(self, i):
        """The seven ``a_k`` as a tuple, ``None`` for minus infinity, or ``eps(i)``'s record."""
        recorded = self._signatures
        if recorded and type(i) is int and i in recorded:  # True and 1.0 hash like 1
            return recorded[i]
        check_index(i)
        out = [0]  # head factor u_inf: eps = 0, nothing before it
        acc = 0  # running sum of <h_i, wt(b^v)> over the factors before slot k
        for name, idx in _SLOTS:
            k = getattr(self, name)  # the factor b_idx(-k)
            out.append(k - acc if idx == i else None)
            acc -= k * CARTAN[(i, idx)]
        return tuple(out)

    def _select(self, i, lower):
        """Acting position per the tensor rule, 1-based over the seven slots:
        the last maximal ``a_k`` for lowering, the first for raising."""
        a = self.a_seq(i)
        top = max(x for x in a if x is not None)
        return len(a) - a[::-1].index(top) if lower else a.index(top) + 1

    def f(self, i):
        pos = self._select(i, lower=True)
        if pos <= 1:
            raise RuntimeError("the tensor rule never lowers the head factor on members")
        return self._apply(None, pos - 2)

    def e(self, i):
        pos = self._select(i, lower=False)
        if pos == 1:
            return None
        return self._apply(pos - 2, None)

    # -- structure maps -------------------------------------------------------

    def wt(self):
        """``-n1*alpha_1 - n2*alpha_2``, ``n_j`` summing the factors ``b_j``."""
        n1 = self.k12bar + self.k13 + self.k11
        n2 = self.k13bar + self.k12 + self.k22
        return (3 * n2 - 2 * n1, n1 - 2 * n2)

    def eps(self, i):
        seq = self.a_seq(i)
        if (recorded := self._signatures) is None:
            object.__setattr__(self, "_signatures", recorded := {})
        recorded[i] = seq
        return max(a for a in seq if a is not None)

    # -- serialization -----------------------------------------------------------

    def text(self):
        return _LABEL % (-self.k12bar, -self.k13bar, -self.k13, -self.k12, -self.k11, -self.k22)


def highest_cliff():
    """The image of the highest weight element: all factor counts zero."""
    return CliffElement()
