"""The three count rules choose their step without building an element.

Each rule names the two count positions that lose and gain a unit, and
``CountElement._apply`` alone turns them into the image.  A subclass whose
``_apply`` returns the pair runs a rule on a stand-in made with
``object.__new__``, its counts ``Fraction``s, which is how a symbolic replay
of the rules on other number types reaches the library's own code.  The rules
must choose the same step on those counts as on ``int`` ones, and the
structure maps ``wt``, ``eps`` and ``phi`` must give the same values, so a
``type(x) is int`` check belongs in the constructors, never in a rule.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from g2crystal.cartan import INDEX_SET
from g2crystal.cliff import CliffElement
from g2crystal.graph import bfs, highest_element
from g2crystal.minf import MinfElement
from g2crystal.tableaux import MLTableau

CLASSES = {"minf": MinfElement, "tableaux": MLTableau, "cliff": CliffElement}
PARAMS = ("p1", "p2", "r")  # M(infinity)'s family parameters stay ints


def _stepper(cls):
    """``cls`` with an ``_apply`` that returns its step instead of an element."""
    return type(f"{cls.__name__}Step", (cls,), {"_apply": lambda self, lose, gain: (lose, gain)})


def _stand_in(cls, elem, number):
    """An instance of ``cls`` with ``elem``'s fields, each count made a ``number``."""
    stand_in = object.__new__(cls)
    for name, value in elem.to_json().items():
        object.__setattr__(stand_in, name, value if name in PARAMS else number(value))
    object.__setattr__(stand_in, "_signatures", None)
    return stand_in


@pytest.mark.parametrize("name", CLASSES)
def test_rules_choose_their_steps_on_any_counts(name):
    """On the depth-10 ball, ``f_i`` and ``e_i`` of a stand-in choose the same
    step on ``Fraction`` counts as on ``int`` ones and return ``None`` at the
    same elements, and the real ``_apply`` of that step is the real image."""
    stepper = _stepper(CLASSES[name])
    cases = 0
    for elem, _depth in bfs(highest_element(name), 10, name).nodes.values():
        exact, symbolic = _stand_in(stepper, elem, int), _stand_in(stepper, elem, Fraction)
        for i in INDEX_SET:
            for op in ("f", "e"):
                step = getattr(symbolic, op)(i)
                assert step == getattr(exact, op)(i), (elem, op, i)
                image = getattr(elem, op)(i)
                assert (image is None) == (step is None), (elem, op, i)
                assert step is None or elem._apply(*step) == image, (elem, op, i, step)
                cases += 1
    assert cases == 1488  # 372 nodes, two operators, two indices


@pytest.mark.parametrize("name", CLASSES)
def test_structure_maps_read_any_counts(name):
    """On the depth-10 ball, ``wt``, ``eps_i`` and ``phi_i`` of a stand-in with
    ``Fraction`` counts equal those of the element itself."""
    nodes = bfs(highest_element(name), 10, name).nodes.values()
    for elem, _depth in nodes:
        symbolic = _stand_in(CLASSES[name], elem, Fraction)
        assert symbolic.wt() == elem.wt(), elem
        for i in INDEX_SET:
            assert (symbolic.eps(i), symbolic.phi(i)) == (elem.eps(i), elem.phi(i)), (elem, i)
    assert len(nodes) == 372
