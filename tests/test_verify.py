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

from g2crystal.cartan import INDEX_SET, weight_to_roots
from g2crystal.cliff import CliffElement
from g2crystal.minf import MinfElement
from g2crystal.monomials import ExtMonomial
from g2crystal.tableaux import MLTableau
from g2crystal.verify import (
    SUITES,
    check_bookkeeping,
    check_closure,
    check_involution,
    random_monomial,
)

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


def _set_field(name, value):
    """A copy of an element with field ``name`` set to ``value`` past the constructor."""
    def fault(elem):
        bad = copy.copy(elem)
        object.__setattr__(bad, name, value)
        return bad
    return fault


def _outside(realization):
    """A copy of an element outside the defining set, made past the constructor."""
    return _set_field(*OUTSIDE[realization])


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


def _at_depth(depth, fault):
    """``orig`` except at the elements ``depth`` steps below the highest one,
    where ``fault`` replaces the image.  At a suite's own depth those images
    are never enumerated, so only the suite's look at each image sees them."""
    def make(orig):
        def op(self, i):
            img = orig(self, i)
            return fault(img) if -sum(weight_to_roots(self.wt())) == depth else img
        return op
    return make


# Another registry class per realization, for a lowering image of the wrong class.
OTHER_CLASS = {"minf": MLTableau, "tableaux": CliffElement, "cliff": MinfElement}

# Lowering images at the deepest level of ``check_closure(2)`` that their
# class refuses: a negative or float count, ``b0 = 2`` (whose M(infinity)
# expansion is another member's monomial), or an element of another class.
DEEP_IMAGES = {
    **{f"tableaux-{name}-negative": ("tableaux", _set_field(name, -1))
       for name in ("b2", "b3", "b0", "b3bar", "b2bar", "b1bar")},
    "tableaux-float-count": ("tableaux", _set_field("b2", 1.0)),
    "minf-b0-2": ("minf", _set_field("b0", 2)),
    **{f"{name}-wrong-class": (name, lambda _img, other=other: other())
       for name, other in OTHER_CLASS.items()},
}


def _colors_swapped(orig):
    """Lowering with the two colors exchanged."""
    return lambda self, i: orig(self, 3 - i)


def _one_count_per_color(orig):
    """Lowering that always adds a 2 to row 1 for color 1 and a column 1 over 3
    for color 2: each step is still one simple root, but every weight is
    reached once."""
    return lambda self, i: replace(self, b2=self.b2 + 1) if i == 1 else replace(
        self, b3low=self.b3low + 1)


def _twice_at_top(orig):
    """Lowering that steps twice from an element of weight 0."""
    return lambda self, i: orig(orig(self, i), i) if self.wt() == (0, 0) else orig(self, i)


def _wt_of_sampled_positions(orig):
    """A weight that reads only positions ``m <= 5``: right on every sample,
    whose support ends at 5, and wrong on a lowering image reaching ``m = 6``."""
    return lambda self: orig(ExtMonomial({(i, m): (u, v) for i, m, u, v in self.key() if m <= 5}))


# Faults that reach the failure branches no ``FAULTS`` entry reaches, each with
# the branch's own message: (suite, size, realization, operator, replacement, message).
BRANCH_FAULTS = {
    "involution-tableaux-wt-off-root": ("involution", 2, "tableaux", "wt", _wt_off_root,
                                        "f_1 weight step wrong"),
    "iso-minf-colors-swapped": ("iso", 3, "minf", "f", _colors_swapped,
                                "minf and tableaux graphs differ"),
    "census-tableaux-one-count-per-color": ("census", 2, "tableaux", "f", _one_count_per_color,
                                            "tableaux count at -(1a1+1a2) is 1, expected 2"),
    # The per-element checks imply the set equality, so this fault also fails
    # them, at the highest element only.
    "lemma-equivalence-monomial-twice-at-top": ("lemma-equivalence", 3, "monomial", "f",
                                                _twice_at_top, "enumerations differ as sets"),
    "bookkeeping-wt-of-sampled-positions": ("bookkeeping", 200, "monomial", "wt",
                                            _wt_of_sampled_positions, "weight step wrong"),
    "shift-minf-wt-off-root": ("shift", 2, "minf", "wt", _wt_off_root, "shift changes weight"),
    "shift-minf-eps-off-root": ("shift", 2, "minf", "eps", _off_root(lambda n: n + 1),
                                "shift changes eps/phi"),
}


def _color_1_zero_at(depth):
    """Lowering by color 1 zero at the elements ``depth`` steps below the
    highest one: color 2 alone reaches the next level, where raising by
    color 1 then has no inverse."""
    def make(orig):
        faulty = _at_depth(depth, lambda img: None)(orig)
        return lambda self, i: faulty(self, i) if i == 1 else orig(self, i)
    return make


# Each law of the two shared checks reached through each suite that runs it,
# with the law's own message, as in ``BRANCH_FAULTS``: the inverse laws
# through ``involution`` and ``bookkeeping`` (``BRANCH_FAULTS`` already
# reaches the weight step through both), and the morphism law through
# ``iso``'s two maps and ``lemma-equivalence``.
LAW_FAULTS = {
    **{
        f"{suite}-{name}-e-zero": (suite, size, name, "e", lambda orig: _zero,
                                   f"{name}: e_1 f_1 != id")
        for suite, size, name in (("involution", 2, "minf"), ("bookkeeping", 200, "monomial"))
    },
    "involution-tableaux-f1-zero-at-depth-2": ("involution", 3, "tableaux", "f",
                                               _color_1_zero_at(2), "tableaux: f_1 e_1 != id"),
    "bookkeeping-monomial-f-zero": ("bookkeeping", 200, "monomial", "f", lambda orig: _zero,
                                    "monomial: f_1 e_1 != id"),
    **{
        f"{suite}-{name}-{op}": (suite, 3, name, op, plant, f"{image} misses {law}")
        for suite, name, image in (("iso", "minf", "theta"), ("iso", "cliff", "tensor map"),
                                   ("lemma-equivalence", "monomial", "to_monomial"))
        for op, law, plant in (("wt", "wt", _wt_off_root),
                               ("eps", "eps_", _off_root(lambda n: n + 1)),
                               ("f", "f_", _at_depth(3, lambda img: None)),
                               ("e", "e_", _at_depth(3, lambda img: None)))
    },
}

MESSAGE_FAULTS = {**BRANCH_FAULTS, **LAW_FAULTS}


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


@pytest.mark.parametrize("fault", sorted(DEEP_IMAGES))
def test_closure_refuses_deep_images(monkeypatch, fault):
    """Each faulty image is refused by its realization's class, and reported."""
    realization, image = DEEP_IMAGES[fault]
    cls = CLASSES[realization]
    monkeypatch.setattr(cls, "f", _at_depth(2, image)(cls.f))
    report = check_closure(2)
    assert not report.ok, report.summary()
    assert all(f"{realization} f_" in d and "image is refused: " in d for d in report.details)


@pytest.mark.parametrize("fault", sorted(MESSAGE_FAULTS))
def test_suite_reports_fault_in_its_branch(monkeypatch, fault):
    suite, size, realization, op, plant, message = MESSAGE_FAULTS[fault]
    cls = CLASSES[realization]
    monkeypatch.setattr(cls, op, plant(getattr(cls, op)))
    report = _run(suite, size)
    assert not report.ok and any(message in d for d in report.details), report.summary()


@pytest.mark.parametrize("suite, size", sorted(
    {(s, n) for s, n, *_rest in (*FAULTS.values(), *MESSAGE_FAULTS.values())} | {("closure", 2)}))
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
