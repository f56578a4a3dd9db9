"""One workload in one process: set up, run timed passes, report as JSON.

Started by run.py (test_smoke.py also imports ``run_pass``).  The last
stdout line is a JSON object with the raw samples; run.py turns them into
metrics.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        [--process I] [--trace 0|1] [--size full|tiny] [--spans PATH]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import homtopo  # noqa: E402  (importing is part of set-up time)
import workloads  # noqa: E402
from homtopo.errors import BudgetError  # noqa: E402
from reference import Reference  # noqa: E402

REF_EVERY_S = 0.25


def run_pass(cases, tally, ref=None):
    """Time every case once; checks run between cases, off the clock.

    With `ref`, the reference job is also timed before the first case,
    after any case that ends REF_EVERY_S or more after the last sample, and
    after the last case; the samples come back as the fourth value.
    """
    times, failures, cap_hits, refs = [], [], 0, []
    last = time.perf_counter()
    if ref is not None:
        refs.append(ref.time())
    for case in cases:
        if ref is not None and time.perf_counter() - last >= REF_EVERY_S:
            refs.append(ref.time())
            last = time.perf_counter()
        t0 = time.perf_counter()
        try:
            out = case.run()
        except BudgetError as e:
            times.append(time.perf_counter() - t0)
            if case.capped:
                cap_hits += 1
            else:
                failures.append(f"{case.label}: BudgetError: {e}")
            continue
        except Exception as e:  # any error is a failed case, not a crash
            times.append(time.perf_counter() - t0)
            failures.append(f"{case.label}: {type(e).__name__}: {e}")
            continue
        times.append(time.perf_counter() - t0)
        try:
            problem = case.check(out, tally)
        except Exception:
            problem = traceback.format_exc(limit=2)
        del out
        if problem:
            failures.append(f"{case.label}: {problem}")
    if ref is not None:
        refs.append(ref.time())
    return times, failures, cap_hits, refs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--process", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spans")
    args = ap.parse_args()

    tiny = args.size == "tiny"
    # pass j of process i relabels the fixed graphs with variant 1000*i + j
    base = 1000 * args.process
    cases = workloads.make_cases(args.workload, args.seed, base, tiny)
    setup_s = time.perf_counter() - T0
    # untraced passes are timed alongside the reference job (reference.py);
    # the traced run reports raw times
    ref = None if args.trace else Reference()
    setup_scale = ref.scale([ref.time() for _ in range(5)]) if ref else 1.0

    walls, scales, times, failures, cap_hits, tally = [], [], [], [], 0, {}
    start = time.perf_counter()
    # at least one pass; another while it should end no more than half a
    # pass after --seconds (a traced run makes one untraced, one traced)
    while True:
        if walls:
            cases = workloads.make_cases(args.workload, args.seed,
                                         base + len(walls), tiny)
        gc.collect()
        t, f, c, r = run_pass(cases, tally if not walls else {}, ref)
        scales.append(ref.scale(r) if ref else 1.0)
        walls.append(sum(t))
        times += [x * scales[-1] for x in t]
        failures += f
        cap_hits += c
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + walls[-1] / 2 > args.seconds:
            break
    res = {"backend": homtopo.BACKEND, "setup_s": setup_s,
           "setup_scale": setup_scale, "cases": len(cases), "walls": walls,
           "scales": scales, "sizes": tally,
           "peak_rss_mb":
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        from tracing import LAYER_METRICS, Tracer
        cases = workloads.make_cases(args.workload, args.seed, base, tiny)
        gc.collect()
        with Tracer() as tracer:
            t, f, c, _ = run_pass(cases, {})
        times += t
        failures += f
        cap_hits += c
        found = tracer.layer_metrics(walls[0], sum(t))
        res["layers"] = [[k, found[k], unit] for k, unit in LAYER_METRICS]
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "backend": homtopo.BACKEND,
                           "fields": ["name", "parent", "start", "end"],
                           "spans": tracer.spans}, fh)
    res.update(times=times, failures=failures, cap_hits=cap_hits)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
