"""The per-element record of the count realizations: ``eps(i)`` stores the
reduced i-signature (``a_seq`` for ``cliff``) on the element, and
``signature``/``a_seq``, ``f``, ``e`` and ``phi`` read it.  These tests
check that the record changes no result, no identity and no serialization,
that only ``eps`` makes one, and that the index is checked before it is read."""

from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import threading
import tracemalloc

import pytest

from g2crystal.cartan import INDEX_SET, CountElement
from g2crystal.cliff import CliffElement
from g2crystal.graph import bfs, highest_element
from g2crystal.isomorphisms import convert
from g2crystal.minf import MinfElement
from g2crystal.tableaux import MLTableau

from conftest import EXAMPLE_COUNTS, EXAMPLE_KS

COUNT_NAMES = ("minf", "tableaux", "cliff")
# The method each count class reduces its signature with.
RULE = {MinfElement: "signature", MLTableau: "signature", CliffElement: "a_seq"}


def _example(cls):
    """A fresh element, so no test sees another test's record."""
    return cls(*(EXAMPLE_KS if cls is CliffElement else EXAMPLE_COUNTS))


def _recorded(elem):
    for i in INDEX_SET:
        elem.eps(i)
    assert set(elem._signatures) == set(INDEX_SET)
    return elem


def _has_record(elem):
    return elem._signatures is not None


def _rebuilt(elem):
    """The same element built afresh, without a record."""
    if isinstance(elem, CountElement):
        return type(elem)(**vars(elem))
    return type(elem).from_json(elem.to_json())


def _results(elem, i):
    """Everything an index reads: the rule's result first, then ``f``, ``e``,
    ``eps`` and ``phi``, so on an element without a record only the last two
    make one."""
    rule = getattr(elem, RULE[type(elem)])(i) if type(elem) in RULE else elem.scan(i)
    return rule, elem.f(i), elem.e(i), elem.eps(i), elem.phi(i)


@pytest.mark.parametrize("cls", RULE, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_rebuild_a_recorded_element(cls):
    """A filled slot on a frozen dataclass would make the default state
    restore raise ``FrozenInstanceError``; the copies are rebuilt from the
    fields and start with no record."""
    elem = _recorded(_example(cls))
    copies = [pickle.loads(pickle.dumps(elem, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(elem), copy.deepcopy(elem)]
    for dup in copies:
        assert dup == elem and hash(dup) == hash(elem) and vars(dup) == vars(elem)
        assert type(dup) is type(elem) and not _has_record(dup)


@pytest.mark.parametrize("bad", [True, 1.0, 3, None], ids=repr)
@pytest.mark.parametrize("method", ["rule", "f", "e", "eps", "phi"])
@pytest.mark.parametrize("cls", RULE, ids=lambda cls: cls.__name__)
def test_index_is_checked_before_a_record_is_read(cls, method, bad):
    """``True`` and ``1.0`` hash like ``1``, so a lookup before the index
    check would hand them the record of index 1."""
    elem = _recorded(_example(cls))
    name = RULE[cls] if method == "rule" else method
    with pytest.raises(ValueError, match="index must be 1 or 2"):
        getattr(elem, name)(bad)


@pytest.mark.parametrize("name", COUNT_NAMES)
def test_operators_record_nothing(name):
    """Only ``eps`` records, so a graph made by ``bfs``, which only lowers,
    holds no record, and neither does an image of a recorded element."""
    graph = bfs(highest_element(name), 10, name)
    assert len(graph.nodes) > 100
    assert not any(_has_record(elem) for elem, _depth in graph.nodes.values())
    elem = _recorded(highest_element(name).f(1).f(2).f(1))
    images = [img for op in (elem.f, elem.e) for i in INDEX_SET if (img := op(i)) is not None]
    assert len(images) >= 3 and not any(_has_record(img) for img in images)


@pytest.mark.parametrize("name", COUNT_NAMES)
def test_record_leaves_identity_and_output_alone(name):
    rng = random.Random(27)
    for _ in range(100):
        elem = highest_element(name)
        for _step in range(rng.randint(0, 30)):
            elem = elem.f(rng.choice(INDEX_SET))
        fresh, recorded = _rebuilt(elem), _recorded(_rebuilt(elem))
        assert not _has_record(fresh)
        assert recorded == fresh and hash(recorded) == hash(fresh)
        assert recorded.key() == fresh.key() and recorded.text() == fresh.text()
        assert recorded.to_json() == fresh.to_json() and vars(recorded) == vars(fresh)


@pytest.mark.parametrize("cls", RULE, ids=lambda cls: cls.__name__)
def test_a_returned_signature_cannot_change_the_record(cls):
    """The rule's result is a tuple of tuples, strings and ints, so hashable
    all the way down: no caller can mutate what a later call reads."""
    elem = _example(cls)
    rule = getattr(elem, RULE[cls])
    before = [rule(i) for i in INDEX_SET]
    _recorded(elem)
    for i, sig in zip(INDEX_SET, before):
        got = rule(i)
        assert got is elem._signatures[i]
        hash(got)
        with pytest.raises((TypeError, AttributeError)):
            got[0] = None
        assert got == sig


def test_lockstep_walk_with_records_matches_fresh_elements():
    """A seeded walk of 400 steps, 70 % lowering, in lockstep on the four
    realizations, reading ``eps``/``phi`` after each step as a walk does:
    every step then lowers or raises elements that carry records.  Their
    results match those of the same elements built afresh, and the images
    correspond through ``convert``."""
    rng = random.Random(41)
    names = ("minf", "tableaux", "cliff", "monomial")
    elems = [highest_element(name) for name in names]
    lowered = 0
    for _step in range(400):
        op = "f" if rng.random() < 0.7 else "e"
        i = rng.choice(INDEX_SET)
        moved = [getattr(x, op)(i) for x in elems]
        assert len({y is None for y in moved}) == 1, (op, i)
        if moved[0] is not None:
            elems = moved
            lowered += op == "f"
        for x in elems:
            for j in INDEX_SET:
                x.eps(j), x.phi(j)
        assert all(_has_record(x) for x in elems[:3])
        for x in elems:
            fresh = _rebuilt(x)
            for j in INDEX_SET:
                assert _results(x, j) == _results(fresh, j), (x.text(), j)
        for name, x in zip(names[1:], elems[1:]):
            assert convert(elems[0], "minf", name) == x, (name, x.text())
    assert 200 < lowered < 400


def test_threads_share_recording_elements_without_a_lock():
    """Four threads read every index of the same elements in their own
    orders, racing on each record's first write.  A lost write only drops a
    record, and every writer stores the same value, so each result still
    equals that of the element built afresh."""
    elems = [elem for name in COUNT_NAMES
             for elem, _depth in bfs(highest_element(name), 8, name).nodes.values()]
    expected = [[_results(_rebuilt(elem), i) for i in INDEX_SET] for elem in elems]
    wrong = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(3):
                for n in rng.sample(range(len(elems)), len(elems)):
                    for i in rng.sample(INDEX_SET, 2):
                        if _results(elems[n], i) != expected[n][i - 1]:
                            wrong.append((elems[n].text(), i))
        except Exception as exc:  # reported by the main thread
            wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert all(_has_record(elem) for elem in elems)


@pytest.mark.parametrize("name", COUNT_NAMES)
def test_field_views_leave_no_memory_behind(name):
    """``to_json``, pickling, copying and a ``from_json`` round trip read the
    fields through ``key()``, so a graph node they touch holds nothing more
    afterwards; reading ``vars`` would give each one its own ``__dict__`` on
    CPython 3.11 (about 64 B a node)."""
    nodes = [elem for elem, _depth in bfs(highest_element(name), 10, name).nodes.values()]
    cls = type(nodes[0])

    def views(elem):
        pickle.dumps(elem)
        copy.copy(elem)
        return cls.from_json(elem.to_json()) == elem

    views(cls(*nodes[0].key()))  # first-call caches, outside the ball
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        same = all(views(elem) for elem in nodes)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert same and len(nodes) == 372
    assert held < 16 * len(nodes), held
