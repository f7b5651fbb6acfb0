"""The property suites catch planted faults, make their pinned number of
checks, and sample the same monomials as the reference sampler.

Each fault test replaces one operator and requires the suite that checks it
to fail; the control runs the same suites at the same sizes unplanted.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from g2crystal.cartan import INDEX_SET
from g2crystal.cliff import CliffElement
from g2crystal.minf import MinfElement
from g2crystal.monomials import ExtMonomial
from g2crystal.tableaux import MLTableau
from g2crystal.verify import SUITES, check_bookkeeping, check_involution, random_monomial

from conftest import CHECK_COUNTS

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "data" / "expected.json"

CLASSES = {"minf": MinfElement, "tableaux": MLTableau, "cliff": CliffElement,
           "monomial": ExtMonomial}

# A field value that puts an element outside its realization's defining set.
OUTSIDE = {"minf": ("b3low", -1), "tableaux": ("b0", 2), "cliff": ("k22", -1)}

# An image built through the constructor, which refuses it: a negative count,
# or for ``cliff`` a count vector off the chain (k12bar above k13bar).
REFUSED = {
    "minf": lambda img: replace(img, b3low=-1),
    "tableaux": lambda img: replace(img, b3low=-1),
    "cliff": lambda img: replace(img, k12bar=img.k13bar + 1),
}


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


def _wt_off_root(orig):
    """A weight one Lambda_1 too high everywhere but at the highest element."""
    def wt(self):
        w1, w2 = orig(self)
        return (w1, w2) if self == type(self)() else (w1 + 1, w2)
    return wt


def _scan_other_index(orig):
    """A scan that reads the other index's prefix sums."""
    return lambda self, i: orig(self, 3 - i)


def _drop_r(orig):
    """A shift that ignores the requested ``r`` and keeps the element's own."""
    return lambda self, p1, p2, r: orig(self, p1, p2, self.r)


FAULTS = {
    # name: (suite, size, realization, operator, replacement built from the original)
    "iso-only-minf-image-zero": ("iso", 3, "minf", "e", lambda orig: _zero),
    "iso-only-tableau-image-zero": ("iso", 3, "tableaux", "e", lambda orig: _zero),
    "iso-images-differ": ("iso", 3, "minf", "e", _self_where_defined),
    **{
        f"closure-{name}-f-{how}": ("closure", 1, name, "f", _off_root(fault))
        for name in OUTSIDE
        for how, fault in (("outside", _outside(name)), ("zero", lambda img: None),
                           ("refused", REFUSED[name]))
    },
    "lemma-equivalence-wrong-e": ("lemma-equivalence", 3, "minf", "e", _self_where_defined),
    **{
        f"{suite}-{name}-wt-off-root": (suite, 3, name, "wt", _wt_off_root)
        for suite, name in (("iso", "tableaux"), ("iso", "minf"), ("lemma-equivalence", "minf"))
    },
    "shift-wrong-e": ("shift", 2, "minf", "e", _wrong_off_family),
    "shift-with-params-drops-r": ("shift", 2, "minf", "with_params", _drop_r),
    "bookkeeping-wrong-e": ("bookkeeping", 200, "monomial", "e", _self_where_defined),
    "bookkeeping-scan-swaps-index": ("bookkeeping", 200, "monomial", "scan", _scan_other_index),
    "involution-wrong-e": ("involution", 2, "tableaux", "e", _self_where_defined),
}


def _run(suite, size):
    """``suite`` at ``size``: the depth, or the sample count for bookkeeping,
    whose ``SUITES`` entry always draws 10,000."""
    return check_bookkeeping(count=size) if suite == "bookkeeping" else SUITES[suite](size)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_suite_catches_planted_fault(monkeypatch, fault):
    suite, size, realization, op, plant = FAULTS[fault]
    cls = CLASSES[realization]
    monkeypatch.setattr(cls, op, plant(getattr(cls, op)))
    report = _run(suite, size)
    assert not report.ok, report.summary()


@pytest.mark.parametrize("suite, size", sorted({(s, n) for s, n, *_rest in FAULTS.values()}))
def test_suite_passes_unplanted(suite, size):
    report = _run(suite, size)
    assert report.ok, report.summary()


def test_involution_makes_its_pinned_checks():
    report = check_involution(10)
    assert report.ok, report.summary()
    assert report.checked == CHECK_COUNTS["involution"]


def test_benchmark_expects_the_pinned_check_counts():
    """The benchmark's expected figures and the acceptance tests pin the
    same seven counts; the file is only read."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["full"]["verify"]
    assert {name: run["checks"] for name, run in expected.items()} == CHECK_COUNTS


@pytest.mark.parametrize("count", [-1, True, False, 1.5, "3", None])
def test_bookkeeping_count_must_be_a_nonnegative_int(count):
    with pytest.raises(ValueError, match="must be nonnegative"):
        check_bookkeeping(count=count)


def test_bookkeeping_accepts_zero_samples():
    report = check_bookkeeping(count=0)
    assert report.ok and report.checked == 0


# The sampler that ``random_monomial`` replaced, kept as the reference:
# ``randint`` draws, built through the validating constructor.
def _reference_random_monomial(rng):
    exp = {}
    for i in INDEX_SET:
        for m in range(-5, 6):
            if rng.random() < 0.25:
                exp[(i, m)] = (rng.randint(-4, 4), rng.randint(-4, 4))
    return ExtMonomial(exp)


@pytest.mark.parametrize("seed", [20260313, 1, 2])
def test_sampler_matches_randint_reference(seed):
    """The same monomials from the same stream, which ends in the same state."""
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(2000):
        got, want = random_monomial(rng), _reference_random_monomial(ref)
        assert got.key() == want.key() and got == want
    assert rng.getstate() == ref.getstate()
