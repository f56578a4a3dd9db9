"""Smoke test of the benchmark itself, on tiny case lists (a few seconds).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402

# layer -> the workload on which the traced pass must see calls to it
ASSIGNED = {
    "betti-sweep": ["kernels.gf2_rank", "kernels.enumerate_hom_cells",
                    "homcx.build_hom", "homcx.chain_data",
                    "topology.betti_gf2"],
    "fold-sweep": ["kernels.enumerate_hom_cells", "homcx.build_hom",
                   "homcx.chain_data", "topology.betti_gf2",
                   "folds.irreducible_core", "graphs.find_isomorphism",
                   "morse.kmn_matching", "morse.is_acyclic"],
    "components": ["graphs.enumerate_homomorphisms",
                   "homcx.count_hom_components",
                   "topology.connected_components"],
    "equivariant": ["kernels.gf2_in_span", "equivariant.quotient",
                    "equivariant.induced_involution", "equivariant.sw_height",
                    "topology.Poset.chains", "topology.face_poset"],
}


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "1", "--size", "tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def test_untraced_metrics_and_no_failures():
    code, out = bench("--trace", "0")
    assert code == 0, out
    res = json.loads(out.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    for w in run.WORKLOADS:
        for name, unit in run.END_TO_END:
            metric = res["metrics"][f"{w}/{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
    assert out.count("fail_ratio   0 ratio  (0/") == len(run.WORKLOADS)


def test_traced_layers_are_reached():
    code, out = bench("--trace", "1")
    assert code == 0, out
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    for w in run.WORKLOADS:
        for name, unit in tracing.LAYER_METRICS:
            assert metrics[f"{w}/{name}"]["unit"] == unit
        for layer in ASSIGNED[w]:
            assert metrics[f"{w}/{layer}.calls"]["value"] > 0, (w, layer)
        assert metrics[f"{w}/trace.untraced_s"]["value"] > 0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)


def test_oracle_survives_python_O():
    # a wrong b_0 must fail every Betti case even with asserts stripped
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import worker, workloads\n"
        "from homtopo import topology\n"
        "real = topology.betti_gf2\n"
        "def wrong(c):\n"
        "    p = real(c)\n"
        "    return type(p)((p.betti[0] + 1,) + p.betti[1:], p.euler,"
        " p.f_vector)\n"
        "topology.betti_gf2 = wrong\n"
        "cases = workloads.make_cases('betti-sweep', 1, 0, True)[:4]\n"
        "print(len(worker.run_pass(cases, {})[1]))\n"
    ) % (os.path.join(ROOT, "src"), HERE)
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["4"], proc.stdout + proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as src, \
                    open(tmp_path / "perfbench" / name, "w") as dst:
                dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "components",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
