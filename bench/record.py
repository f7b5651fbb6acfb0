"""Run the benchmark over several seeds and write a ``BENCH_<label>.json`` record.

Usage, from the root of a checkout::

    python3 bench/record.py --label seed --seeds 10 [--no-trace]

For each seed 1..N it runs every workload once with tracing off (seeds in
the outer loop, so slow phases of the machine spread over all workloads),
then one traced run per workload on seed 1.  Per workload and end-to-end
metric it records every value, the median and the quartile spread
``(q3 - q1) / median`` (``statistics.quantiles(values, n=4)``), next to the
metric's bound from ``BENCHMARK.json``, and prints the spreads.  The record
goes to ``bench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_run(workload, seed, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = json.loads(lines[0].removeprefix("# "))
    return meta, json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "spread": (q3 - q1) / median}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    runs = {w: [] for w in workloads}
    metas = {}
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            metas[workload], result = bench_run(workload, seed, 0)
            runs[workload].append(result)
            print(f"seed {seed} {workload}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    meta = metas[workloads[0]]
    record = {"meta": {k: meta[k] for k in ("python", "implementation", "git_sha", "nproc",
                                            "machine", "seconds")},
              "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for workload, results in runs.items():
        entry = {"sizes": metas[workload]["workload_sizes"],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = {**stats, "unit": results[0]["metrics"][name]["unit"],
                                         "bound": bound}
            flag = "" if stats["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:7s} {name:14s} median {stats['median']:10.4f}  "
                  f"spread {stats['spread']:.3f} (bound {bound}){flag}")
        if not args.no_trace:
            _meta, traced = bench_run(workload, 1, 1)
            entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry

    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
