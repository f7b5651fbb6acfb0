"""Explicit crystal isomorphisms between the three realizations.

The tableau <-> monomial map copies the count vector verbatim: row-1 letter
counts become the level-(r-1) X exponents and the row-2 count of 3s becomes
the level-(r-2) one.  The tableau -> tensor map is

    k11 = b2 + b3 + b0 + b3bar + b2bar + b1bar
    k12 = k11 - b2
    k13 = 2*(b3bar + b2bar + b1bar) + b0
    k13bar = b2bar + b1bar,  k12bar = b1bar,  k22 = b3low

and its inverse resolves the halved middle term with integer arithmetic:

    b1bar = k12bar, b2bar = k13bar - k12bar, b3bar = k13//2 - k13bar,
    b0 = k13 % 2, b3 = k12 - ceil(k13/2), b2 = k11 - k12, b3low = k22.

Changing the family parameters of a monomial element while keeping its
count vector is itself an isomorphism onto the shifted family.

:data:`REALIZATIONS`, the one registry of realization names (the graph
module and the CLI read it too), gives each its element class, highest
element, and maps into and out of M(infinity), the realization carrying the
family parameters ``(p1, p2, r)``; :func:`convert` routes through it.  So
``minf`` to ``minf`` is the identity and ``minf`` to ``monomial`` is
:meth:`MinfElement.to_monomial` for every family, while tableaux and
``cliff`` exist for (1, 1, 0) only.  A raw monomial names its own family,
so ``monomial`` to ``minf`` keeps the parameters too.
"""

from __future__ import annotations

from collections import namedtuple

from .cliff import CliffElement, highest_cliff
from .minf import MinfElement, highest_minf, minf_from_monomial
from .monomials import ExtMonomial, highest_monomial
from .tableaux import MLTableau, highest_tableau


def tableau_to_minf(tab):
    """Count-copy isomorphism onto M(infinity) proper."""
    check_element("tableaux", tab)
    return MinfElement(*tab.counts())


def minf_to_tableau(elem):
    check_element("minf", elem)
    if elem.params() != (1, 1, 0):
        raise ValueError(
            f"only M(1,1;0;infinity) corresponds to tableaux directly, got params {elem.params()}"
        )
    return MLTableau(*elem.counts())


def tableau_to_cliff(tab):
    check_element("tableaux", tab)
    tail3 = tab.b3bar + tab.b2bar + tab.b1bar
    return CliffElement(
        k12bar=tab.b1bar,
        k13bar=tab.b2bar + tab.b1bar,
        k13=2 * tail3 + tab.b0,
        k12=tab.b3 + tab.b0 + tail3,
        k11=tab.b2 + tab.b3 + tab.b0 + tail3,
        k22=tab.b3low,
    )


def cliff_to_tableau(elem):
    check_element("cliff", elem)
    return MLTableau(
        b2=elem.k11 - elem.k12,
        b3=elem.k12 - (elem.k13 + 1) // 2,
        b0=elem.k13 % 2,
        b3bar=elem.k13 // 2 - elem.k13bar,
        b2bar=elem.k13bar - elem.k12bar,
        b1bar=elem.k12bar,
        b3low=elem.k22,
    )


def shift_params(elem, p1, p2, r):
    """Isomorphism onto the shifted family: same counts, new parameters."""
    check_element("minf", elem)
    return elem.with_params(p1, p2, r)


def minf_to_cliff(elem):
    return tableau_to_cliff(minf_to_tableau(elem))


def cliff_to_minf(elem):
    return tableau_to_minf(cliff_to_tableau(elem))


def _identity(elem):
    return elem


def _monomial_to_minf(mono):
    """Parse a raw monomial as a member of the family it names: ``p1`` and
    ``p2`` are the u-totals of its extended weight, and the Y_1 factor
    carrying ``p1`` sits at ``r - 1``.  Any family's members name it, so a
    non-member of the named family is a member of none: ``ValueError``."""
    (p1, _v1), (p2, _v2) = mono.wt_pairs()
    r = next((m + 1 for i, m, u, _v in mono.key() if i == 1 and u != 0), 0)
    try:
        return minf_from_monomial(mono, p1, p2, r)
    except ValueError:
        raise ValueError(f"not a member of any M(p1,p2;r;infinity): {mono.text()}") from None


Realization = namedtuple("Realization", "cls highest to_minf from_minf")
REALIZATIONS = {  # the monomial exit looks ``to_monomial`` up at call time
    "monomial": Realization(ExtMonomial, highest_monomial, _monomial_to_minf,
                            lambda elem: elem.to_monomial()),
    "minf": Realization(MinfElement, highest_minf, _identity, _identity),
    "tableaux": Realization(MLTableau, highest_tableau, tableau_to_minf, minf_to_tableau),
    "cliff": Realization(CliffElement, highest_cliff, cliff_to_minf, minf_to_cliff),
}


def get_realization(name):
    """The registry row of a realization name; ``ValueError`` for an unknown one."""
    try:
        return REALIZATIONS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown realization {name!r}") from None


def check_element(name, elem):
    """The registry row of realization ``name``; ``ValueError`` for an unknown
    name or an element not of its class."""
    row = get_realization(name)
    if not isinstance(elem, row.cls):
        raise ValueError(f"{name} takes a {row.cls.__name__}, got {type(elem).__name__}")
    return row


def convert(elem, source, target):
    """The image of ``elem``, an element of realization ``source``, in ``target``;
    ``ValueError`` for an unknown name or an element not of the source's class."""
    src, dst = check_element(source, elem), get_realization(target)
    return dst.from_minf(src.to_minf(elem))
