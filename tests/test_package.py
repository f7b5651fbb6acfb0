"""Package-wide guards on how the source is built: the signature rules run
through one live ``signature`` method, no invariant rests on ``assert``,
the realization names are registered in one table, one builder makes
every monomial and sorts its key, only ``scan`` records a monomial scan and
only ``eps`` a count signature, count elements write their JSON from their
own fields, the methods shared by the count elements are written once, and
so are the rule for which parameters name an M(infinity) family and the
crystal laws the verification suites check."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import g2crystal
from g2crystal import verify
from g2crystal.cartan import INDEX_SET, CountElement, CountVector
from g2crystal.cliff import CliffElement
from g2crystal.minf import MinfElement
from g2crystal.tableaux import MLTableau

from conftest import EXAMPLE_COUNTS


@pytest.mark.parametrize("i", INDEX_SET)
@pytest.mark.parametrize("method", ["f", "e", "eps", "phi"])
@pytest.mark.parametrize("cls", [MinfElement, MLTableau], ids=["minf", "tableaux"])
def test_signature_rule_reads_signature(cls, method, i, monkeypatch):
    """Operators and structure maps reduce the signature through
    ``signature(i)``, so no second copy of the rule sits beside it unused."""
    calls = []
    live = cls.signature

    def counted(self, j):
        calls.append(j)
        return live(self, j)

    monkeypatch.setattr(cls, "signature", counted)
    getattr(cls(*EXAMPLE_COUNTS), method)(i)
    assert i in calls


def _package_nodes():
    """``(file name, node)`` for every AST node of ``g2crystal/*.py``."""
    paths = sorted(Path(g2crystal.__file__).parent.glob("*.py"))
    assert paths
    return [
        (path.name, node)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_no_assert_statements_in_the_package():
    """Invariants raise real exceptions: ``python -O`` strips ``assert``."""
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_one_realization_registry():
    """Exactly one dict display is keyed by all four realization names, so
    names, classes, highest elements and routes cannot drift apart."""
    names = {"monomial", "minf", "tableaux", "cliff"}
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Dict)
        and names <= {k.value for k in node.keys if isinstance(k, ast.Constant)}
    ]
    assert len(found) == 1, found


def test_one_monomial_key_builder():
    """``monomials.py`` calls ``sorted`` and ``object.__new__`` once each,
    both in ``_build``, so no second path can make a monomial, add exponent
    pairs or order a key differently."""
    nodes = [node for name, node in _package_nodes() if name == "monomials.py"]
    builders = [node for node in nodes
                if isinstance(node, ast.FunctionDef) and node.name == "_build"]
    assert len(builders) == 1

    def calls(tree):
        return sorted(
            f"{ast.unparse(node.func)}:{node.lineno}" for node in tree
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("sorted", "object.__new__")
        )

    found = calls(nodes)
    assert [call.split(":")[0] for call in found] == ["object.__new__", "sorted"], found
    assert calls(ast.walk(builders[0])) == found


def test_only_scan_records_a_monomial_scan():
    """In ``monomials.py`` every function but ``scan`` sets ``_scans`` only to
    ``None`` and never stores into it, so operators never record a scan and
    the graphs ``bfs`` makes carry none."""
    nodes = [node for name, node in _package_nodes() if name == "monomials.py"]
    functions = [node for node in nodes if isinstance(node, ast.FunctionDef)]
    assert "scan" in {func.name for func in functions}

    def is_memo(node):
        return isinstance(node, ast.Attribute) and node.attr == "_scans"

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    def bindings(assign):
        for target in assign.targets:
            if isinstance(target, ast.Tuple) and isinstance(assign.value, ast.Tuple):
                yield from zip(target.elts, assign.value.elts)
            else:
                yield target, assign.value

    writers = set()
    for func in functions:
        assigns = [node for node in ast.walk(func) if isinstance(node, ast.Assign)]
        # local names for the memo, as in ``scans = self._scans``
        aliases = {
            target.id for node in assigns
            if is_memo(node.value) or any(is_memo(target) for target in node.targets)
            for target in node.targets if isinstance(target, ast.Name)
        }

        def memo(node):
            return is_memo(node) or isinstance(node, ast.Name) and node.id in aliases

        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign) and any(
                    is_memo(target) and not is_none(value) for target, value in bindings(node))
                or isinstance(node, (ast.Subscript, ast.Attribute))
                and isinstance(node.ctx, (ast.Store, ast.Del)) and memo(node.value)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("setdefault", "update", "pop", "popitem", "clear",
                                       "__setitem__")
                and memo(node.func.value)
            ):
                writers.add(func.name)
    assert writers == {"scan"}


def test_only_eps_records_a_count_signature():
    """Across the package every function but the two ``eps`` definitions, in
    ``cartan.py`` and ``cliff.py``, sets the ``_signatures`` slot of the count
    elements only to ``None`` and never stores into it, so operators never
    record and the graphs ``bfs`` makes carry no record."""

    def names_memo(node):
        return (isinstance(node, ast.Attribute) and node.attr == "_signatures"
                or isinstance(node, ast.Constant) and node.value == "_signatures")

    writers = set()
    for name, func in _package_nodes():
        if not isinstance(func, ast.FunctionDef):
            continue
        # local names for the record, as in ``recorded = self._signatures``
        aliases = {
            target.id for node in ast.walk(func)
            if isinstance(node, (ast.Assign, ast.NamedExpr))
            and any(names_memo(part) for part in ast.walk(node.value))
            for target in getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(target, ast.Name)
        }

        def memo(node):
            return names_memo(node) or isinstance(node, ast.Name) and node.id in aliases

        for node in ast.walk(func):
            if (
                isinstance(node, (ast.Subscript, ast.Attribute))
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and (names_memo(node) or memo(node.value))
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("setdefault", "update", "pop", "popitem", "clear",
                                       "__setitem__")
                and memo(node.func.value)
                or isinstance(node, ast.Call) and any(names_memo(arg) for arg in node.args)
                and not (isinstance(node.args[-1], ast.Constant) and node.args[-1].value is None)
                and (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                     or isinstance(node.func, ast.Attribute)
                     and node.func.attr in ("__setattr__", "__set__"))
            ):
                writers.add((name, func.name))
    assert writers == {("cartan.py", "eps"), ("cliff.py", "eps")}


def test_count_json_reads_no_field_table():
    """No module calls ``dataclasses.fields`` or binds ``COUNT_FIELDS`` or
    ``_JSON_FIELDS``: count JSON is the instance fields, written one way."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        and any(alias.name == "fields" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "fields"
        and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id in ("COUNT_FIELDS", "_JSON_FIELDS")
    ]
    assert found == []


def test_shared_count_methods_are_defined_once():
    """``phi``, ``to_json`` and ``signature`` have one ``def`` across the
    count realizations, so no copy can drift from the others; so has ``wt``
    across the seven-count ones, while the tensor products read their own
    counts."""
    files = ("cartan.py", "minf.py", "tableaux.py", "cliff.py")
    defs = [(name, node.name) for name, node in _package_nodes()
            if name in files and isinstance(node, ast.FunctionDef)]
    names = [func for _name, func in defs]
    assert [names.count(func) for func in ("phi", "to_json", "signature")] == [1, 1, 1]
    assert [name for name, func in defs if func == "wt"] == ["cartan.py", "cliff.py"]


# Names each count class binds to its base's function for the span tracer.
BOUND = {
    MinfElement: ("wt", "signature", "eps", "phi", "to_json"),
    MLTableau: ("key", "wt", "signature", "eps", "phi", "to_json"),
    CliffElement: ("key", "phi", "to_json"),
}


@pytest.mark.parametrize("cls", BOUND, ids=lambda cls: cls.__name__)
def test_bound_names_are_the_base_functions(cls):
    for name in BOUND[cls]:
        base = CountVector if name in vars(CountVector) else CountElement
        assert vars(cls)[name] is vars(base)[name], name


@pytest.mark.parametrize("field", [{"k11": -1}, {"k13": 1.5}, {"k22": True}], ids=repr)
def test_cliff_counts_keep_the_shared_message(field):
    elem = CliffElement()
    counts = tuple(field.get(name, value) for name, value in vars(elem).items())
    with pytest.raises(ValueError) as exc:
        CliffElement(**field)
    assert str(exc.value) == f"counts must be nonnegative integers, got {counts}"


def test_one_family_rule():
    """In the package only ``MinfElement.__post_init__`` compares ``p1`` or
    ``p2`` with 1, so the rule for which parameters name a family is written
    once; membership, ``highest_monomial`` and the monomial route of
    ``convert`` reach it by building an element of the family."""
    def is_rule(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        return any(isinstance(op, ast.Constant) and op.value == 1 for op in operands) and any(
            isinstance(op, ast.Name) and op.id in ("p1", "p2")
            or isinstance(op, ast.Attribute) and op.attr in ("p1", "p2")
            for op in operands
        )

    tree = ast.parse(Path(g2crystal.minf.__file__).read_text(encoding="utf-8"))
    owner = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "MinfElement")
    post_init = next(node for node in owner.body
                     if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    allowed = sorted(f"minf.py:{node.lineno}" for node in ast.walk(post_init) if is_rule(node))
    assert len(allowed) == 2, allowed
    found = sorted(f"{name}:{node.lineno}" for name, node in _package_nodes() if is_rule(node))
    assert found == allowed


def test_verify_writes_each_crystal_law_once():
    """In ``verify.py`` only ``_inverse_laws`` names ``simple_root`` or
    ``weight_sub``, and only ``_morphism`` and ``check_shift_family`` name
    ``_agree``: the inverse laws and the morphism law are each written once,
    and the suites that check them only choose the elements."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    users = {}
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                users.setdefault(node.id, set()).add(owner)
    assert users["simple_root"] | users["weight_sub"] == {"_inverse_laws"}
    assert users["_agree"] == {"_morphism", "check_shift_family"}
    assert users["_inverse_laws"] == {"check_involution", "check_bookkeeping"}
    assert users["_morphism"] == {"check_iso", "check_lemma_equivalence"}
