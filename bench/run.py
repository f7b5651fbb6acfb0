"""Benchmark of the g2crystal library and CLI; standard library only.

Usage, from the root of a checkout::

    python3 bench/run.py --workload export|verify|walk|all --seed N --seconds S --trace 0|1 [--fast]

Workloads (closed loop, one caller; every pass runs in a fresh
single-threaded process started by this script, one after another):

* ``export``: ``g2crystal graph`` in-process for all four realizations x
  {json, dot} at depth 18.  BFS and export do nearly all the work.
* ``verify``: the seven property suites at their acceptance parameters.
  The monomial scan/construction path and the M(infinity) Y-expansion
  dominate; export is unused.
* ``walk``: seeded operator words, 70 % lowering, applied in lockstep to
  minf, tableaux, cliff and the generic monomials, reading wt/eps/phi after
  each step.  Few deep elements instead of many shallow ones; graph and
  export are bypassed.

With ``--trace 0`` passes of identical work (inputs depend on the seed
only) repeat until ``--seconds`` have gone by, at least one; see
:func:`end_to_end` for how they are reduced.  With
``--trace 1`` the run makes three passes on the same inputs: an untraced
one, a traced one (spans through ``tracer.py``) and one under tracemalloc,
and reports the per-layer metrics; tracing overhead is the traced pass's
timed phase minus the untraced one's: two unscaled single passes, so a
change of host speed between them shows in it and can make it negative.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the same numbers for people, with run metadata.  A
record of the run, with metadata and per-pass samples, goes to ``bench/out``.
``--fast`` uses the small sizes of ``data/expected.json`` for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
WORKLOADS = ("export", "verify", "walk")
PASS_TIMEOUT_S = 170


def spawn_pass(workload, seed, mode, sizes):
    """Run one pass in a fresh interpreter; returns its result and set-up time."""
    argv = [sys.executable, "-I", str(WORKER), workload, str(seed), mode, sizes]
    spawned = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} pass ({mode}) exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def percentile(values, q):
    """The q-th percentile (0 < q < 100), inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, passes):
    """End-to-end metrics and, for people, finer ones.

    Every pass repeats identical work, so each unit's time is its median
    over the passes, taken on times scaled to a fixed host speed (see
    ``worker.py``; the unscaled figures are printed as ``raw_*``).  ``wall_s`` is the timed phase of one pass, the sum of
    its units' times; ``setup_s`` is scaled by the speed measured right
    after set-up.  Set-up time and peak RSS are medians over the passes.
    """
    units = [statistics.median(repeats) for repeats in zip(*(p["unit_s"] for p in passes))]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] * p["speed"] for p in passes), "s"),
        "wall_s": (sum(units), "s"),
        "unit_p50_ms": (percentile(units, 50) * 1e3, "ms"),
        "unit_p95_ms": (percentile(units, 95) * 1e3, "ms"),
        "peak_rss_mib": (statistics.median(p["rss_mib"] for p in passes), "MiB"),
    }
    names = passes[0]["unit_names"]
    detail = {
        "raw_setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "raw_wall_s": (statistics.median(sum(p["unit_raw_s"]) for p in passes), "s"),
        "host_speed": (statistics.median(p["speed"] for p in passes), "1"),
    }
    detail.update({f"{name}_s": (seconds, "s") for name, seconds in zip(names, units)})
    if workload == "export":
        for fmt in ("json", "dot"):
            total = sum(t for name, t in zip(names, units) if name.endswith(f".{fmt}"))
            detail[f"graph_{fmt}_s"] = (total, "s")
    if workload == "walk":
        detail["step_p50_us"] = (percentile(units, 50) * 1e6, "us")
        detail["step_p99_us"] = (percentile(units, 99) * 1e6, "us")
    return metrics, detail, len(units)


def per_layer(plain, traced, mem):
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["cli.import_s"] = (plain["import_s"], "s")
    metrics["mem.traced_peak_mib"] = (mem["traced_peak_mib"], "MiB")
    untraced_s, traced_s = sum(plain["unit_raw_s"]), sum(traced["unit_raw_s"])
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def git_sha():
    """HEAD of the checkout when it is itself a git work tree, else ``None``."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(args, sizes):
    with open(BENCH / "data" / "expected.json", encoding="utf-8") as fh:
        spec = json.load(fh)[sizes][args.workload]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "workload_sizes": {k: v for k, v in spec.items() if k != "sha256"},
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(args):
    sizes = "fast" if args.fast else "full"
    meta = metadata(args, sizes)
    if args.trace:
        plain = spawn_pass(args.workload, args.seed, "plain", sizes)
        traced = spawn_pass(args.workload, args.seed, "trace", sizes)
        mem = spawn_pass(args.workload, args.seed, "mem", sizes)
        passes = [plain, traced, mem]
        metrics, detail, samples = per_layer(plain, traced, mem), {}, len(plain["unit_s"])
    else:
        passes = []
        begun = time.monotonic()
        while not passes or time.monotonic() - begun < args.seconds:
            passes.append(spawn_pass(args.workload, args.seed, "plain", sizes))
        metrics, detail, samples = end_to_end(args.workload, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    detail["error_rate"] = (failed / attempted, "1")

    print(f"# {json.dumps(meta, sort_keys=True)}")
    print(f"{args.workload}: {len(passes)} passes, {samples} unit samples, "
          f"{attempted} units attempted, {failed} failed")
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"  {name} = {value:.6g} {unit}")
    for error in errors:
        print(f"  FAILED: {error}")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "detail": detail, "attempted": attempted,
              "failed": failed, "errors": errors,
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes]}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "g2crystal" / "__init__.py").is_file():
        print(f"run.py: no g2crystal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
