"""End-to-end and per-layer benchmark of homtopo's Hom-complex pipeline.

Run from the repository root (stdlib only, no install needed):

    python3 perfbench/run.py --workload betti-sweep --seed 1 --seconds 20 --trace 0

Workloads: betti-sweep, fold-sweep, components, equivariant, or ``all``.
Each run makes its inputs from --seed.  With --trace 0 it runs the workload
in PROCESSES fresh processes in turn; each sets up (import plus input
generation) and then runs timed passes for its share of --seconds.  With
--trace 1 one process makes one untraced and one traced pass.  Every case
is checked against an oracle.  Untraced times are scaled to a nominal host
speed measured by a reference job (reference.py); traced times are raw.
Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 if
any case failed, 2 if the program under test is missing or a worker
process crashed or ran out of time (then no result line is printed).

--size tiny shrinks every case list for the smoke test (test_smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("betti-sweep", "fold-sweep", "components", "equivariant")
# the timed passes of an untraced run are split over this many fresh
# processes: a process keeps its speed for life, and that speed differs
# from process to process by up to 15% on a shared host
PROCESSES = 4
DEADLINE_S = 170  # every run must end within 180 s

# end-to-end metrics as (name, unit); fail_ratio is printed but not listed,
# since a metric that is 0 on a healthy run has no spread to bound
END_TO_END = [("wall_s", "s"), ("case_p50_s", "s"), ("case_p90_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]


class Failed(Exception):
    """The worker process crashed or ran out of time."""


def call_worker(argv: list[str], deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise Failed("out of time before the worker started")
    try:
        # the worker inherits -O, so checks are seen to survive it
        opt = ["-O"] * sys.flags.optimize
        proc = subprocess.run([sys.executable, *opt, WORKER, *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise Failed(f"worker timed out: {' '.join(argv)}") from None
    if proc.returncode != 0:
        raise Failed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_workload(args, workload: str, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(args.seed),
            "--size", args.size]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{workload}-seed{args.seed}.json")
        runs = [call_worker(base + ["--seconds", str(args.seconds),
                                    "--trace", "1", "--spans", spans],
                            deadline)]
    else:
        share = str(args.seconds / PROCESSES)
        runs = [call_worker(base + ["--seconds", share, "--process", str(i)],
                            deadline)
                for i in range(PROCESSES)]
    walls = [w for r in runs for w in r["walls"]]
    scales = [k for r in runs for k in r["scales"]]
    times = [t for r in runs for t in r["times"]]
    setups = [r["setup_s"] * r["setup_scale"] for r in runs]
    failures = [f for r in runs for f in r["failures"]]
    fail = len(failures)
    print(f"== {workload}  seed {args.seed}  backend {runs[0]['backend']}  "
          f"{runs[0]['cases']} cases/pass, {len(walls)} untraced pass(es) in "
          f"{len(runs)} process(es){' + 1 traced' if args.trace else ''}")
    for line in failures[:20]:
        print(f"   FAIL {line}")
    print(f"   fail_ratio   {fail / len(times):.4g} ratio  ({fail}/{len(times)} "
          f"cases; {sum(r['cap_hits'] for r in runs)} cap hits counted, "
          f"not failed)")
    print(f"   sizes/pass   {json.dumps(runs[0]['sizes'], sort_keys=True)}")
    if args.trace:
        metrics = {k: v for k, v, _ in runs[0]["layers"]}
        units = {k: u for k, _, u in runs[0]["layers"]}
    else:
        metrics = {
            "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
            "case_p50_s": percentile(times, 50),
            "case_p90_s": percentile(times, 90),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
        print(f"   samples      {len(walls)} pass(es), {len(times)} case "
              f"times, {len(setups)} set-ups")
        print(f"   raw walls    {' '.join(f'{w:.3f}' for w in walls)} s "
              f"(median {statistics.median(walls):.4g} s)")
        print(f"   host scale   {' '.join(f'{k:.3f}' for k in scales)} "
              f"(times below are these passes' times x scale)")
    for k, v in metrics.items():
        print(f"   {k:<40s} {v:.6g} {units[k]}")
    return {"correct": fail == 0, "attempted": len(times), "failed": fail,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "homtopo", "__init__.py")):
        print(f"no homtopo sources under {ROOT}/src; nothing to measure",
              file=sys.stderr)
        return 2
    todo = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in todo:
            results[w] = run_workload(args, w, time.monotonic() + DEADLINE_S)
    except Failed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    if len(todo) == 1:
        final = results[todo[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
