"""Command-line surface: documented invocations, exit codes, determinism."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import homtopo
from homtopo import topology
from homtopo.cli import main, resolve_graph
from homtopo.equivariant import coloring_bound
from homtopo.errors import DomainError
from homtopo.graphs import complete, petersen
from homtopo.homcx import HomComplex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_resolve_graph(tmp_path):
    assert resolve_graph("petersen") == petersen()
    assert resolve_graph("K9") == complete(9)    # beyond the corpus list
    assert resolve_graph("Q3").n == 8
    p = tmp_path / "g.json"
    p.write_text('{"n": 2, "edges": [[0, 1]]}')
    assert resolve_graph(str(p)) == complete(2)
    with pytest.raises(DomainError):
        resolve_graph("no-such-graph")


def test_family_name_over_the_cap_keeps_its_message(tmp_path, monkeypatch):
    for spec in ("C2000000", "K100"):
        with pytest.raises(DomainError, match="vertex count .* outside"):
            resolve_graph(spec)
    with pytest.raises(DomainError, match="cycle needs"):
        resolve_graph("C2")
    # a file of that name still wins over the refused family name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "K100").write_text('{"n": 2, "edges": [[0, 1]]}')
    assert resolve_graph("K100") == complete(2)


def test_hom_reports(capsys):
    code, obj = run_json(capsys, "hom", "--source", "K2", "--target", "K4",
                         "--betti")
    assert code == 0 and obj["betti"] == [1, 0, 1]
    code, obj = run_json(capsys, "hom", "--source", "C7", "--target", "K3",
                         "--components")
    assert code == 0 and obj["components"] == 2
    code, obj = run_json(capsys, "hom", "--source", "C5", "--target", "K4",
                         "--betti")
    assert code == 0 and obj["betti"] == [1, 1, 1, 1]
    code, obj = run_json(capsys, "hom", "--source", "C5", "--target", "K3",
                         "--fvector", "--emit-cells")
    assert obj["f_vector"] == [30, 30] and len(obj["cell_list"]) == 60


def test_hom_of_an_empty_complex(capsys):
    code, obj = run_json(capsys, "hom", "--source", "K3", "--target", "K2")
    assert code == 0 and obj["cells"] == 0 and obj["dim"] == -1


def test_hom_betti_of_a_disconnected_source(capsys):
    # Hom(3K2, K4) = (S^2)^3, split into its three factors
    data = os.path.join(os.path.dirname(__file__), "data", "3K2.edges")
    code, obj = run_json(capsys, "hom", "--source", data, "--target", "K4",
                         "--betti")
    assert code == 0 and obj["betti"] == [1, 0, 3, 0, 3, 0, 1]


def test_hom_exit_codes(capsys):
    code, _ = run(capsys, "hom", "--source", "Kxx", "--target", "K3")
    assert code == 2
    code, _ = run(capsys, "hom", "--source", "K4", "--target", "K7",
                  "--budget", "100")
    assert code == 3


def test_reduce_core(capsys):
    code, obj = run_json(capsys, "reduce", "core", "--graph", "L5")
    assert code == 0 and obj["core"]["n"] == 2
    assert len(obj["trace"]["removed"]) == 3
    code, obj = run_json(capsys, "reduce", "core", "--graph", "L5",
                         "--policy", "random:5")
    assert code == 0 and obj["core"]["n"] == 2
    code, _ = run(capsys, "reduce", "core", "--graph", "L5",
                  "--policy", "sideways")
    assert code == 2


def test_morse_kmn(capsys):
    code, obj = run_json(capsys, "morse", "kmn", "--m", "3", "--n", "4")
    assert code == 0
    assert obj == {"acyclic": True, "critical": 12, "matched_pairs": 6,
                   "m": 3, "n": 4, "cells": 24}
    code, _ = run(capsys, "morse", "kmn", "--m", "5", "--n", "4")
    assert code == 2


def test_equivariant_bound(capsys):
    code, obj = run_json(capsys, "equivariant", "bound",
                         "--graph", "petersen")
    assert code == 0 and obj["bound"] == 3 and obj["free"] is True
    code = main(["equivariant", "bound", "--graph", "K3o"])
    err = capsys.readouterr().err
    assert code == 2 and "chromatic bound needs a loopless graph" in err
    # the orbit complex of Hom(K2,K7) has 966 cells; its subdivision is
    # past MATRIX_BIT_CAP
    code, obj = run_json(capsys, "equivariant", "bound", "--graph", "K7")
    assert code == 0 and obj["bound"] == 7
    assert obj["quotient_betti"] == [1] * 6


@pytest.mark.parametrize("argv", [
    ("hom", "--source", "petersen", "--target", "K4", "--fvector", "--betti",
     "--components"),
    ("equivariant", "bound", "--graph", "petersen"),
], ids=["hom-three-readers", "equivariant-bound"])
def test_one_order_pass_and_one_forest_per_complex(capsys, monkeypatch, argv):
    # every reader of a complex's layout shares its ChainData's ranges and
    # forest: one order check and one spanning forest per command
    calls = {"dim_ranges": 0, "_spanning_forest": 0}
    for name in calls:
        real = getattr(topology, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(topology, name, counted)
    code, _ = run_json(capsys, *argv)
    assert code == 0
    assert calls == {"dim_ranges": 1, "_spanning_forest": 1}


def test_equivariant_bound_reads_no_face_data_of_x(capsys, monkeypatch):
    # the orbit complex reads its facets off the representatives' keys, so
    # Hom(K_m,G) itself never builds its chain data
    calls = []
    real = HomComplex.chain_data

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(HomComplex, "chain_data", counted)
    assert coloring_bound(petersen(), 2) == 3
    code, obj = run_json(capsys, "equivariant", "bound", "--graph", "K6")
    assert code == 0 and obj["sw_height"] == 4
    assert calls == []


def test_verify_json_path_checked_before_the_run(capsys, tmp_path,
                                                 monkeypatch):
    def no_run(*args):
        raise AssertionError("checks ran before the --json path was checked")

    monkeypatch.setattr("homtopo.cli.run_checks", no_run)
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, _ = run(capsys, "verify", "fast", "--json", str(path))
        assert code == 2


def test_formulas(capsys):
    code, obj = run_json(capsys, "formulas", "f", "--m", "4", "--n", "6")
    assert code == 0 and obj["f"] == 479
    code, obj = run_json(capsys, "formulas", "chi", "--m", "3", "--n", "4")
    assert code == 0 and obj["chi"] == -12
    code, obj = run_json(capsys, "formulas", "c", "--t", "6")
    assert code == 0 and obj["components"] == 7
    code, obj = run_json(capsys, "formulas", "gen", "--m", "3")
    assert code == 0 and obj["identity"] is True
    code, obj = run_json(capsys, "formulas", "mn", "--n", "3")
    assert code == 0 and obj["f_vector"] == [14, 24, 12]
    code, _ = run(capsys, "formulas", "mn", "--n", "99")
    assert code == 3
    code, out = run(capsys, "formulas", "table", "--max-m", "2",
                    "--max-n", "3", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "m,n,f,chi"
    assert "2,3,1,0" in out.splitlines()


def test_formulas_large_n(capsys):
    code, out = run(capsys, "formulas", "table", "--max-m", "3",
                    "--max-n", "60")
    assert code == 0 and len(json.loads(out)) == 60 + 59 + 58
    code, obj = run_json(capsys, "formulas", "f", "--m", "3", "--n", "1000")
    assert code == 0 and obj["f"] == 2 ** 1000 - 3


@pytest.mark.parametrize("argv", [
    ("formulas", "f", "--m", "3", "--n", "100000"),
    ("formulas", "chi", "--m", "3", "--n", "100000"),
    ("formulas", "gen", "--m", "3", "--upto", "100000"),
    ("formulas", "table", "--max-m", "3", "--max-n", "100000"),
])
def test_formulas_over_cap_exit_3(argv, capsys):
    assert main(list(argv)) == 3
    assert capsys.readouterr().err.startswith("error: formula")


@pytest.mark.parametrize("max_m,max_n", [("0", "6"), ("3", "0"),
                                         ("-1", "6"), ("3", "-2")])
def test_formulas_table_out_of_range_exit_2(max_m, max_n, capsys):
    code = main(["formulas", "table", "--max-m", max_m, "--max-n", max_n])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: a table of f(m,n) needs max m, max n >= 1\n")


def test_formulas_pretty(capsys):
    code, out = run(capsys, "formulas", "f", "--m", "3", "--n", "4",
                    "--pretty")
    assert code == 0 and "13" in out and "{" not in out


def test_verify_subset(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, obj = run_json(capsys, "verify", "fast", "--only", "exclusions",
                         "--stable", "--json", str(out_path))
    assert code == 0 and obj["status"] == "pass"
    assert [c["name"] for c in obj["checks"]] == ["exclusions"]
    assert "elapsed" not in obj["checks"][0]
    assert json.loads(out_path.read_text()) == obj


def test_verify_determinism(capsys):
    args = ("verify", "fast", "--only", "cayley-graph", "--stable")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_verify_usage_errors(capsys):
    code, _ = run(capsys, "verify", "fast", "--only", "nope")
    assert code == 2


def run_cli(*argv, **env):
    """The CLI in a fresh interpreter: (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(homtopo.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env)
    out = subprocess.run([sys.executable, "-m", "homtopo.cli", *argv],
                         env=env, capture_output=True, text=True)
    return out.returncode, out.stderr


# files read by the bad-input cases below, as {tmp}/NAME
BAD_FILES = {
    "utf16.txt": "n 2\n0 1\n".encode("utf-16"),
    "n-not-int.json": b'{"n": "x", "edges": []}',
    "header.txt": b"n x\n0 1\n",
    "triple.json": b'{"n": 3, "edges": [[0, 1, 2]]}',
}


@pytest.mark.parametrize("argv,env", [
    (("reduce", "core", "--graph", "L5", "--policy", "random:x"), {}),
    (("hom", "--source", "{tmp}", "--target", "K3"), {}),
    (("hom", "--source", "{tmp}/utf16.txt", "--target", "K3"), {}),
    (("hom", "--source", "{tmp}/n-not-int.json", "--target", "K3"), {}),
    (("hom", "--source", "{tmp}/header.txt", "--target", "K3"), {}),
    (("hom", "--source", "{tmp}/triple.json", "--target", "K3"), {}),
    (("verify", "fast", "--only", "exclusions",
      "--json", "{tmp}/missing/x.json"), {}),
    (("formulas", "gen", "--m", "2", "--upto", "-1"), {}),
    (("reduce", "core", "--graph", "L5", "--policy", "random:--5"), {}),
    (("reduce", "core", "--graph", "L5", "--policy", "random:\u00b2"), {}),
])
def test_bad_outside_input_exits_2(argv, env, tmp_path):
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_bytes(data)
    code, err = run_cli(*(a.format(tmp=tmp_path) for a in argv), **env)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,env", [
    (("hom", "--source", "K2", "--target", "K3", "--budget", "-1"), {}),
    (("equivariant", "bound", "--graph", "K3", "--budget", "-1"), {}),
])
def test_negative_budget_exits_2(argv, env):
    code, err = run_cli(*argv, **env)
    assert code == 2
    assert err.startswith("error: ") and "must be >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,env", [
    (("morse", "kmn", "--m", "9", "--n", "12"), {}),   # 14,270,256,000 cells
])
def test_kmn_over_budget_exits_3_at_once(argv, env):
    start = time.perf_counter()
    code, err = run_cli(*argv, **env)
    assert code == 3
    assert err.startswith("error: cell budget") and "Traceback" not in err
    assert time.perf_counter() - start < 2


def test_vertex_cap_exits_2_at_once():
    # two million vertices are refused before a single row is built
    start = time.perf_counter()
    code, err = run_cli("hom", "--source", "C2000000", "--target", "K3")
    assert code == 2
    assert err.startswith("error: vertex count 2000000 outside")
    assert "Traceback" not in err
    assert time.perf_counter() - start < 2


def test_hom_over_budget_names_the_exact_count():
    code, err = run_cli("hom", "--source", "C5", "--target", "K5",
                        "--budget", "100")
    assert code == 3
    assert err.startswith("error: cell budget 100 exceeded")
    assert "has 45540 cells" in err and "Traceback" not in err


def test_dense_source_empty_at_once():
    # no 2^22-entry count table: the enumerator rules K22 -> K3 out after
    # four vertices
    start = time.perf_counter()
    code, err = run_cli("hom", "--source", "K22", "--target", "K3")
    assert code == 0 and err == ""
    assert time.perf_counter() - start < 2


def test_verify_budgets_are_not_an_input():
    # the two suites are fixed; no flag overrides their budgets
    for flag, value in (("--set", "seed=1"), ("--config", "x.cfg")):
        code, err = run_cli("verify", "fast", flag, value)
        assert code == 2
        assert "unrecognized arguments" in err and "Traceback" not in err


def test_verify_pretty(capsys):
    code, out = run(capsys, "verify", "fast", "--only", "exclusions",
                    "--pretty")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "exclusions" in out


def test_console_script():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["homtopo"]
    modname, _, attr = target.partition(":")
    assert getattr(importlib.import_module(modname), attr) is main
    # the installed script when there is one, else the module it points at
    exe = shutil.which("homtopo")
    cmd = [exe] if exe else [sys.executable, "-m", modname]
    src = os.path.dirname(os.path.dirname(homtopo.__file__))
    out = subprocess.run([*cmd, "formulas", "f", "--m", "3", "--n", "4"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"f": 13, "m": 3, "n": 4}
