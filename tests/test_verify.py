"""The property suites catch planted faults.

Each fault test replaces one operator and requires the suite that checks it
to fail; the control runs the same suites at the same depths unplanted.
"""

from __future__ import annotations

import copy

import pytest

from g2crystal.cliff import CliffElement
from g2crystal.minf import MinfElement
from g2crystal.tableaux import MLTableau
from g2crystal.verify import SUITES

CLASSES = {"minf": MinfElement, "tableaux": MLTableau, "cliff": CliffElement}

# A field value that puts an element outside its realization's defining set.
OUTSIDE = {"minf": ("b3low", -1), "tableaux": ("b0", 2), "cliff": ("k22", -1)}


def _zero(self, i):
    return None


def _self_where_defined(orig):
    """A wrong raising operator: the element itself where ``orig`` is defined."""
    return lambda self, i: None if orig(self, i) is None else self


def _wrong_off_family(orig):
    """Right on M(1,1;0;infinity), wrong on every shifted family."""
    wrong = _self_where_defined(orig)
    return lambda self, i: orig(self, i) if self.params() == (1, 1, 0) else wrong(self, i)


def _outside(realization):
    """A copy of an element outside the defining set, made past the constructor."""
    def fault(elem):
        bad = copy.copy(elem)
        object.__setattr__(bad, *OUTSIDE[realization])
        return bad
    return fault


def _off_root(fault):
    """``orig`` at the highest element and ``fault`` of its image elsewhere, so
    a depth-1 enumeration, which lowers only the highest element, stays sound."""
    def make(orig):
        return lambda self, i: orig(self, i) if self == type(self)() else fault(orig(self, i))
    return make


FAULTS = {
    # name: (suite, depth, realization, operator, replacement built from the original)
    "iso-only-minf-image-zero": ("iso", 3, "minf", "e", lambda orig: _zero),
    "iso-only-tableau-image-zero": ("iso", 3, "tableaux", "e", lambda orig: _zero),
    "iso-images-differ": ("iso", 3, "minf", "e", _self_where_defined),
    **{
        f"closure-{name}-f-{how}": ("closure", 1, name, "f", _off_root(fault))
        for name in CLASSES
        for how, fault in (("outside", _outside(name)), ("zero", lambda img: None))
    },
    "lemma-equivalence-wrong-e": ("lemma-equivalence", 3, "minf", "e", _self_where_defined),
    "shift-wrong-e": ("shift", 2, "minf", "e", _wrong_off_family),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_suite_catches_planted_fault(monkeypatch, fault):
    suite, depth, realization, op, plant = FAULTS[fault]
    cls = CLASSES[realization]
    monkeypatch.setattr(cls, op, plant(getattr(cls, op)))
    report = SUITES[suite](depth)
    assert not report.ok, report.summary()


@pytest.mark.parametrize("suite, depth", sorted({(s, d) for s, d, *_rest in FAULTS.values()}))
def test_suite_passes_unplanted(suite, depth):
    report = SUITES[suite](depth)
    assert report.ok, report.summary()
