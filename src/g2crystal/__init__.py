"""Combinatorial models of the G2 crystal B(infinity).

Three equivalent realizations are provided: extended Nakajima monomials
(:mod:`~g2crystal.monomials` and the distinguished subset in
:mod:`~g2crystal.minf`), marginally large Young tableaux
(:mod:`~g2crystal.tableaux`), and tensor products of elementary crystals
(:mod:`~g2crystal.cliff`), together with the explicit isomorphisms between
them (:mod:`~g2crystal.isomorphisms`), crystal-graph enumeration and export
(:mod:`~g2crystal.graph`), and property verification suites
(:mod:`~g2crystal.verify`).
"""

from .cartan import (
    INDEX_SET,
    pairing,
    roots_to_weight,
    simple_root,
    weight_to_roots,
)
from .cliff import CliffElement, highest_cliff
from .graph import (
    CrystalGraph,
    bfs,
    iso_check,
    kostant_partitions,
    to_dot,
    to_json,
    weight_census,
)
from .isomorphisms import (
    cliff_to_minf,
    cliff_to_tableau,
    convert,
    minf_to_cliff,
    minf_to_tableau,
    shift_params,
    tableau_to_cliff,
    tableau_to_minf,
)
from .minf import (
    MinfElement,
    highest_minf,
    is_minf_monomial,
    minf_from_monomial,
    x_monomial,
)
from .monomials import ExtMonomial, a_monomial, classify_seed, highest_monomial
from .tableaux import MLTableau, highest_tableau

__all__ = [
    "INDEX_SET",
    "pairing",
    "weight_to_roots",
    "roots_to_weight",
    "simple_root",
    "ExtMonomial",
    "a_monomial",
    "classify_seed",
    "highest_monomial",
    "MinfElement",
    "highest_minf",
    "is_minf_monomial",
    "minf_from_monomial",
    "x_monomial",
    "MLTableau",
    "highest_tableau",
    "CliffElement",
    "highest_cliff",
    "tableau_to_minf",
    "minf_to_tableau",
    "tableau_to_cliff",
    "cliff_to_tableau",
    "minf_to_cliff",
    "cliff_to_minf",
    "convert",
    "shift_params",
    "CrystalGraph",
    "bfs",
    "iso_check",
    "weight_census",
    "kostant_partitions",
    "to_dot",
    "to_json",
]
