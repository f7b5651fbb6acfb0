from __future__ import annotations

import io
import json

import pytest

from g2crystal.cli import main

from conftest import EXAMPLE_EXPONENTS, EXAMPLE_KS


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


def test_graph_rejects_unknown_realization(capsys, monkeypatch):
    with pytest.raises(SystemExit) as err:
        run(capsys, monkeypatch, ["graph", "--realization", "nope", "--depth", "1"])
    assert err.value.code == 2


def test_depth_cap(capsys, monkeypatch):
    code, _out, err = run(capsys, monkeypatch, ["graph", "--realization", "minf", "--depth", "13"])
    assert code == 2 and "exceeds the cap" in err
    monkeypatch.setenv("G2CRYSTAL_DEPTH_CAP", "15")
    code, out, _err = run(capsys, monkeypatch, ["graph", "--realization", "minf", "--depth", "13"])
    assert code == 0 and out.startswith("digraph")
    monkeypatch.delenv("G2CRYSTAL_DEPTH_CAP")
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
    bad = json.dumps([{"i": 1, "m": -1, "u": 1, "v": 1}, {"i": 2, "m": -2, "u": 1, "v": 0}])
    code, _out, err = run(
        capsys, monkeypatch,
        ["convert", "--from", "monomial", "--to", "tableaux"],
        stdin=bad,
    )
    assert code == 2 and "not a member" in err


def test_convert_rejects_bad_json(capsys, monkeypatch):
    code, _out, err = run(
        capsys, monkeypatch,
        ["convert", "--from", "minf", "--to", "cliff"],
        stdin="{not json",
    )
    assert code == 2 and "invalid element JSON" in err


@pytest.mark.parametrize("suite", ["closure", "involution", "iso", "census", "lemma-equivalence"])
def test_verify_suites_pass(capsys, monkeypatch, suite):
    code, out, _err = run(capsys, monkeypatch, ["verify", suite, "--depth", "4"])
    assert code == 0
    assert "pass" in out


def test_verify_closure_depth_zero(capsys, monkeypatch):
    code, out, _err = run(capsys, monkeypatch, ["verify", "closure", "--depth", "0"])
    assert code == 0 and "pass" in out


def test_depth_cap_rejects_unparsable_value(capsys, monkeypatch):
    monkeypatch.setenv("G2CRYSTAL_DEPTH_CAP", "abc")
    code, out, err = run(capsys, monkeypatch, ["graph", "--realization", "minf", "--depth", "2"])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "G2CRYSTAL_DEPTH_CAP" in err and "'abc'" in err


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
