from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import g2crystal.cli
from g2crystal.cli import main
from g2crystal.graph import bfs, highest_element, to_dot, to_json
from g2crystal.isomorphisms import REALIZATIONS
from g2crystal.minf import MinfElement, highest_minf

from conftest import EXAMPLE_EXPONENTS, EXAMPLE_KS

REALIZATION_NAMES = sorted(REALIZATIONS)


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def monomial_json():
    return json.dumps(
        [{"i": i, "m": m, "u": u, "v": v} for (i, m), (u, v) in sorted(EXAMPLE_EXPONENTS.items())]
    )


def test_graph_dot(capsys, monkeypatch):
    code, out, _err = run(capsys, monkeypatch, ["graph", "--realization", "minf", "--depth", "2"])
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert out.count("->") == 6


def test_graph_json_to_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "g.json"
    code, out, _err = run(
        capsys,
        monkeypatch,
        ["graph", "--realization", "tableaux", "--depth", "0", "--format", "json",
         "--out", str(target)],
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert len(payload["nodes"]) == 1 and payload["edges"] == []


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize("realization", REALIZATION_NAMES)
def test_graph_writes_the_library_export(realization, fmt, tmp_path, capsysbinary, monkeypatch):
    """The pieces ``graph`` writes, to stdout and to ``--out``, make up the
    bytes of ``to_json``/``to_dot`` exactly."""
    export = to_json if fmt == "json" else to_dot
    want = export(bfs(highest_element(realization), 6, realization)).encode("utf-8")
    argv = ["graph", "--realization", realization, "--depth", "6", "--format", fmt]
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == want
    target = tmp_path / f"g.{fmt}"
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == want and capsysbinary.readouterr().out == b""


def test_graph_export_is_never_built_whole(tmp_path, monkeypatch):
    """Writing the depth-16 monomial JSON peaks above the built graph by less
    than a quarter of the document's length: the writer holds node ids, the
    sorted edges and one piece at a time, not the document."""
    graph = bfs(highest_element("monomial"), 16, "monomial")
    length = len(to_json(graph))
    monkeypatch.setattr(g2crystal.cli, "bfs", lambda *args: graph)
    argv = ["graph", "--realization", "monomial", "--depth", "16", "--force",
            "--format", "json", "--out", str(tmp_path / "g.json")]
    main(argv)  # parser and I/O set-up allocate once per process; measure a later run
    tracemalloc.start()
    try:
        code = main(argv)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and (tmp_path / "g.json").stat().st_size == length
    assert peak < length / 4, f"peak {peak} B for a {length} B document"


def run_process(argv, **kwargs):
    """``python -m g2crystal.cli ARGV`` on the package under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(g2crystal.cli.__file__).parents[1]))
    env.update(kwargs.pop("env", {}))
    return subprocess.Popen(
        [sys.executable, "-m", "g2crystal.cli", *argv], env=env, stderr=subprocess.PIPE, **kwargs
    )


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_graph_to_a_full_device_exits_two():
    proc = run_process(["graph", "--realization", "monomial", "--depth", "8", "--format", "json",
                        "--out", "/dev/full"])
    _out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode().splitlines() == ["g2crystal: [Errno 28] No space left on device"]


_GRAPH_ARGV = ["graph", "--realization", "monomial", "--force", "--format", "json", "--depth"]
_LEAVING_READER_RUNS = {  # argv and stdin of each run; "14" alone is read before the reader leaves
    "14": (_GRAPH_ARGV + ["14"], None),
    "0": (_GRAPH_ARGV + ["0"], None),
    "apply": (["apply", "--realization", "minf", "--word", "f1"], b"{}"),
    "convert": (["convert", "--from", "tableaux", "--to", "cliff"], b"{}"),
    "verify": (["verify", "census", "--depth", "8"], None),
}


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("run_name", list(_LEAVING_READER_RUNS))
def test_graph_to_a_reader_that_leaves_exits_two(run_name, unbuffered):
    """A reader that leaves early gets one stderr line and exit 2, with nothing
    left for exit's flush to report: the depth-14 ``graph`` is read once and
    then closed (``| head -c 100``); every other run's reader is gone before
    the first write, so the whole output is still in stdout's buffer when the
    flush in ``main`` fails, for ``graph`` as for ``apply``, ``convert`` and
    ``verify``.  Also under ``PYTHONUNBUFFERED``, where a write cut short used
    to pass silently."""
    argv, stdin = _LEAVING_READER_RUNS[run_name]
    read_end, write_end = os.pipe()
    if run_name != "14":
        os.close(read_end)
    with run_process(argv, stdout=write_end, env={"PYTHONUNBUFFERED": unbuffered},
                     stdin=subprocess.PIPE if stdin else subprocess.DEVNULL) as proc:
        os.close(write_end)
        if stdin:
            proc.stdin.write(stdin)
            proc.stdin.close()
        if run_name == "14":
            assert os.read(read_end, 100)
            os.close(read_end)
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert err.splitlines() == ["g2crystal: [Errno 32] Broken pipe"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nope"], "argument command: invalid choice: 'nope'"),
        (["graph", "--realization", "minf", "--format", "svg", "--depth", "1"],
         "argument --format: invalid choice: 'svg'"),
        (["verify", "iso", "--depth", "x"], "argument --depth: invalid int value: 'x'"),
        (["graph", "--depth", "2"], "the following arguments are required: --realization"),
        ([], "the following arguments are required: command"),
        (["convert", "--from", "minf", "--to", "cliff", "--bogus", "a\nb"],
         "unrecognized arguments: --bogus a b"),
    ],
)
def test_usage_errors_print_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"g2crystal: {message}")


@pytest.mark.parametrize("argv", [["--help"], ["graph", "-h"], ["verify", "--help"]])
def test_help_keeps_its_output(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: g2crystal") and captured.out.count("\n") > 3


def test_graph_rejects_unknown_realization(capsys, monkeypatch):
    with pytest.raises(SystemExit) as err:
        run(capsys, monkeypatch, ["graph", "--realization", "nope", "--depth", "1"])
    assert err.value.code == 2


def test_depth_cap(capsys, monkeypatch):
    code, _out, err = run(capsys, monkeypatch, ["graph", "--realization", "minf", "--depth", "13"])
    assert code == 2 and "exceeds the cap" in err
    code, out, _err = run(
        capsys, monkeypatch,
        ["graph", "--realization", "minf", "--depth", "13", "--force"],
    )
    assert code == 0 and out.startswith("digraph")


def test_apply_lowering(capsys, monkeypatch):
    code, out, _err = run(
        capsys, monkeypatch,
        ["apply", "--realization", "minf", "--word", "f1"],
        stdin="{}",
    )
    assert code == 0
    assert json.loads(out) == {
        "b2": 1, "b3": 0, "b0": 0, "b3bar": 0, "b2bar": 0, "b1bar": 0,
        "b3low": 0, "p1": 1, "p2": 1, "r": 0,
    }


def test_apply_zero(capsys, monkeypatch):
    code, out, _err = run(
        capsys, monkeypatch,
        ["apply", "--realization", "tableaux", "--word", "e1"],
        stdin="{}",
    )
    assert code == 0 and out.strip() == "ZERO"


def test_apply_word_round_trip(capsys, monkeypatch):
    code, out, _err = run(
        capsys, monkeypatch,
        ["apply", "--realization", "cliff", "--word", "f1 f2 e2 e1"],
        stdin="{}",
    )
    assert code == 0
    assert json.loads(out) == {k: 0 for k in ("k12bar", "k13bar", "k13", "k12", "k11", "k22")}


def test_apply_rejects_bad_word(capsys, monkeypatch):
    code, _out, err = run(
        capsys, monkeypatch,
        ["apply", "--realization", "minf", "--word", "g3"],
        stdin="{}",
    )
    assert code == 2 and "unknown operator" in err


def test_convert_monomial_to_tableau(capsys, monkeypatch):
    code, out, _err = run(
        capsys, monkeypatch,
        ["convert", "--from", "monomial", "--to", "tableaux"],
        stdin=monomial_json(),
    )
    assert code == 0
    assert json.loads(out) == {
        "b2": 1, "b3": 0, "b0": 1, "b3bar": 2, "b2bar": 0, "b1bar": 1, "b3low": 2,
    }


def test_convert_tableau_to_cliff(capsys, monkeypatch, tmp_path):
    src = tmp_path / "tab.json"
    src.write_text(
        json.dumps({"b2": 1, "b3": 0, "b0": 1, "b3bar": 2, "b2bar": 0, "b1bar": 1, "b3low": 2}),
        encoding="utf-8",
    )
    code, out, _err = run(
        capsys, monkeypatch,
        ["convert", "--from", "tableaux", "--to", "cliff", "--input", str(src)],
    )
    assert code == 0
    ks = json.loads(out)
    assert tuple(ks[k] for k in ("k12bar", "k13bar", "k13", "k12", "k11", "k22")) == EXAMPLE_KS


def test_convert_highest_between_all(capsys, monkeypatch):
    code, out, _err = run(
        capsys, monkeypatch,
        ["convert", "--from", "tableaux", "--to", "minf"],
        stdin="{}",
    )
    assert code == 0
    assert json.loads(out)["p1"] == 1
    code, out, _err = run(
        capsys, monkeypatch,
        ["convert", "--from", "cliff", "--to", "monomial"],
        stdin="{}",
    )
    assert code == 0
    assert json.loads(out) == [
        {"i": 1, "m": -1, "u": 1, "v": 0},
        {"i": 2, "m": -2, "u": 1, "v": 0},
    ]


def test_convert_rejects_non_member(capsys, monkeypatch):
    for factors in (
        [{"i": 1, "m": -1, "u": 1, "v": 1}, {"i": 2, "m": -2, "u": 1, "v": 0}],
        [],  # u-totals (0, 0): outside every family M(p1,p2;r;infinity)
        [{"i": 1, "m": 0, "u": 1, "v": 0}],  # u-totals (1, 0)
    ):
        code, _out, err = run(
            capsys, monkeypatch,
            ["convert", "--from", "monomial", "--to", "tableaux"],
            stdin=json.dumps(factors),
        )
        assert code == 2 and "not a member" in err and "must be positive" not in err
        assert len(err.strip().splitlines()) == 1


def test_convert_shifted_minf_keeps_parameters(capsys, monkeypatch):
    code, out, err = run(
        capsys, monkeypatch, ["convert", "--from", "minf", "--to", "minf"], stdin='{"p1": 2}'
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "b2": 0, "b3": 0, "b0": 0, "b3bar": 0, "b2bar": 0, "b1bar": 0,
        "b3low": 0, "p1": 2, "p2": 1, "r": 0,
    }
    code, out, err = run(
        capsys, monkeypatch, ["convert", "--from", "minf", "--to", "monomial"], stdin='{"p1": 2}'
    )
    assert code == 0 and err == ""
    assert json.loads(out) == [
        {"i": 1, "m": -1, "u": 2, "v": 0},
        {"i": 2, "m": -2, "u": 1, "v": 0},
    ]


def test_convert_shifted_monomial_keeps_parameters(capsys, monkeypatch):
    elem = {"p1": 2, "r": 3, "b2": 1, "b3low": 2}
    code, mono, err = run(
        capsys, monkeypatch, ["convert", "--from", "minf", "--to", "monomial"],
        stdin=json.dumps(elem),
    )
    assert code == 0 and err == ""
    code, out, err = run(
        capsys, monkeypatch, ["convert", "--from", "monomial", "--to", "minf"], stdin=mono
    )
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "b2": 1, "b3": 0, "b0": 0, "b3bar": 0, "b2bar": 0, "b1bar": 0,
        "b3low": 2, "p1": 2, "p2": 1, "r": 3,
    }


@pytest.mark.parametrize("target", ["cliff", "tableaux"])
@pytest.mark.parametrize(
    ("source", "stdin", "params"),
    [
        ("minf", '{"p1": 2}', (2, 1, 0)),
        ("monomial", '[{"i": 1, "m": 0, "u": 1, "v": 0}, {"i": 2, "m": -1, "u": 1, "v": 0}]',
         (1, 1, 1)),
    ],
    ids=["minf", "monomial"],
)
def test_convert_shifted_family_to_tableaux_or_cliff_refused(
        capsys, monkeypatch, target, source, stdin, params):
    """Tableaux and ``cliff`` exist for M(1,1;0;infinity) only, and the
    refusal names both targets."""
    code, out, err = run(
        capsys, monkeypatch, ["convert", "--from", source, "--to", target], stdin=stdin
    )
    assert code == 2 and out == ""
    assert err == (f"g2crystal: tableaux and cliff exist for M(1,1;0;infinity) only, "
                   f"got params {params}\n")


def test_count_bound_is_inclusive(capsys, monkeypatch):
    code, out, err = run(
        capsys, monkeypatch,
        ["convert", "--from", "tableaux", "--to", "minf"],
        stdin='{"b3low": 100000}',
    )
    assert code == 0 and err == "" and json.loads(out)["b3low"] == 100000


def test_convert_rejects_bad_json(capsys, monkeypatch):
    code, _out, err = run(
        capsys, monkeypatch,
        ["convert", "--from", "minf", "--to", "cliff"],
        stdin="{not json",
    )
    assert code == 2 and "invalid element JSON" in err


@pytest.mark.parametrize(
    "suite", ["closure", "involution", "iso", "census", "lemma-equivalence", "shift", "bookkeeping"]
)
def test_verify_suites_pass(capsys, monkeypatch, suite):
    code, out, _err = run(capsys, monkeypatch, ["verify", suite, "--depth", "4"])
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize(
    "argv",
    [["verify", suite, "--depth", "-3"] for suite in
     ("closure", "involution", "iso", "census", "lemma-equivalence", "shift", "bookkeeping")]
    + [["graph", "--realization", "minf", "--depth", "-3"]],
    ids=lambda argv: argv[1],
)
def test_negative_depth_is_refused(capsys, monkeypatch, argv):
    """Every suite refuses a negative depth, even one that samples instead
    of enumerating, with the message ``bfs`` gives."""
    code, out, err = run(capsys, monkeypatch, argv)
    assert code == 2 and out == ""
    assert err == "g2crystal: depth must be nonnegative and an int, got -3\n"


def test_verify_closure_depth_zero(capsys, monkeypatch):
    code, out, _err = run(capsys, monkeypatch, ["verify", "closure", "--depth", "0"])
    assert code == 0 and "pass" in out


def _plant_minf_f(monkeypatch, fault):
    """Replace ``MinfElement.f`` at ``f_2(f_1(top))`` with ``fault(top)``."""
    top = highest_minf()
    below, real_f = top.f(1), MinfElement.f
    monkeypatch.setattr(
        MinfElement, "f", lambda self, i: fault(top) if (self, i) == (below, 2) else real_f(self, i)
    )


def test_verify_reports_a_broken_invariant(capsys, monkeypatch):
    """A non-injective lowering operator trips ``bfs``'s ``RuntimeError``;
    ``verify`` reports it as a failed suite, with no traceback."""
    _plant_minf_f(monkeypatch, lambda top: top.f(2))  # f_2 f_1 top == f_2 top
    code, out, err = run(capsys, monkeypatch, ["verify", "closure", "--depth", "2"])
    assert (code, err) == (1, "")
    assert out == "closure: FAIL (0 checks)\n  lowering operators must be injective\n"


def test_verify_lets_programming_errors_through(capsys, monkeypatch):
    def fault(_top):
        raise TypeError("planted")

    _plant_minf_f(monkeypatch, fault)
    with pytest.raises(TypeError, match="planted"):
        main(["verify", "closure", "--depth", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "--from", "tableaux", "--to", "cliff"],
        ["apply", "--realization", "tableaux", "--word", "e1"],
    ],
)
def test_tableau_with_two_zeros_rejected(capsys, monkeypatch, argv):
    code, out, err = run(capsys, monkeypatch, argv, stdin='{"b0": 2}')
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "b0 must be 0 or 1, got 2" in err


_BAD_INDEX = ('[{"i": 3, "m": 0, "u": 1, "v": 0}]', '[{"i": 0, "m": 0, "u": 1, "v": 0}]')


@pytest.mark.parametrize("command", ["apply", "convert"])
@pytest.mark.parametrize(
    ("realization", "stdin"),
    [
        ("minf", '{"bogus": 1}'),
        ("minf", "[1, 2]"),
        ("minf", "null"),
        ("monomial", '[{"i": 1, "u": 1, "v": 0}]'),
        ("monomial", '{"a": 1}'),
        ("tableaux", '{"p1": 2}'),
        ("minf", '{"b2": 1e400}'),
        ("minf", '{"b2": 1.7}'),
        ("minf", '{"b2": true}'),
        ("minf", '{"b2": "3"}'),
        ("monomial", '[{"i": 1, "m": 0.5, "u": 1, "v": 0}]'),
        pytest.param("monomial", "[" * 100000, id="monomial-deep-array"),
        pytest.param("minf", '{"b2": ' * 50000, id="minf-deep-object"),
        *(("monomial", stdin) for stdin in _BAD_INDEX),
    ],
)
def test_malformed_element_json_rejected(capsys, monkeypatch, command, realization, stdin):
    if command == "apply":
        argv = ["apply", "--realization", realization, "--word", "f1"]
    else:
        argv = ["convert", "--from", realization, "--to", "cliff"]
    code, out, err = run(capsys, monkeypatch, argv, stdin=stdin)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("g2crystal: ")
    if stdin in _BAD_INDEX:
        assert "index must be 1 or 2" in err


@pytest.mark.parametrize("command", ["apply", "convert"])
@pytest.mark.parametrize("realization", ["minf", "tableaux"])
def test_large_counts_accepted(capsys, monkeypatch, command, realization):
    """Counts have no upper bound, and the run-length rules act on them at
    constant cost."""
    if command == "apply":
        argv = ["apply", "--realization", realization, "--word", "f1 f2 e1 e2 f1"]
        expected = {"b2": 10**9, "b3": 1, "b3low": 10**9 - 1}
    else:
        argv = ["convert", "--from", realization, "--to", "cliff"]
        expected = {"k11": 10**9, "k22": 10**9, "k12": 0}
    started = time.perf_counter()
    code, out, err = run(capsys, monkeypatch, argv, stdin='{"b2": 1000000000, "b3low": 1000000000}')
    assert time.perf_counter() - started < 1.0
    assert code == 0 and err == ""
    assert expected.items() <= json.loads(out).items()


def test_apply_rejects_cliff_non_member(capsys, monkeypatch):
    code, out, err = run(
        capsys, monkeypatch,
        ["apply", "--realization", "cliff", "--word", "f1"],
        stdin='{"k13": 5}',
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "not in the realization" in err


def test_cli_import_stays_lean():
    """Importing the CLI loads neither ``fractions`` nor ``decimal``."""
    src = str(Path(g2crystal.cli.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import g2crystal.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout.strip() == "[]"
