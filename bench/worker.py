"""One pass of one benchmark workload, in a fresh single-threaded process.

``run.py`` starts this file once per pass::

    python3 -I bench/worker.py WORKLOAD SEED MODE SIZES

MODE is ``plain`` (no tracing; the tracer module is never imported),
``trace`` (spans through :mod:`tracer`) or ``mem`` (tracemalloc peak).
SIZES names a section of ``data/expected.json`` (``full`` or ``fast``).
The pass prints one JSON object on stdout; ``ready`` is the
``time.monotonic()`` reading once imports and input generation are done,
which on Linux shares its clock with the parent that started the process.

Every unit's time is also reported scaled to a fixed host speed, because
the shared host's CPU speed drifts by up to a third over seconds to
minutes: in untraced passes a SIGALRM handler times a fixed pure-Python
reference kernel every ``SAMPLE_INTERVAL_S``, a unit's raw time excludes
the handler's, and its scaled time is ``raw * REFERENCE_S / r`` with ``r``
the median kernel time within ``SPEED_WINDOW_S`` of the unit.

Correctness is judged by oracles that do not call the code under test:
pinned sha256 digests of every export, a Kostant partition table computed
here, the seven suites' pinned check counts, and, on the walk, agreement of
the four realizations through the conversion maps after every step.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "data" / "expected.json"

REALIZATIONS = ("minf", "tableaux", "cliff", "monomial")
FORMATS = ("json", "dot")
SUITES = ("iso", "census", "lemma-equivalence", "closure", "involution", "bookkeeping", "shift")
_MAX_ERRORS = 5

# The reference kernel's time on the host the sizes were tuned on (Intel
# Xeon VM, 2 vCPUs, CPython 3.11.7) in a quiet phase; scaled times are in
# seconds at that speed.
REFERENCE_S = 1.6e-3
SAMPLE_INTERVAL_S = 0.1
SPEED_WINDOW_S = 0.3

# Positive roots of G2 in simple-root coordinates, alpha_1 short (paper's convention).
G2_POSITIVE_ROOTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))


def load_sizes(name):
    """Workload sizes and their expected outputs, from ``data/expected.json``."""
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[name]


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def kostant_table(height):
    """Kostant partition numbers p(a, b) for a + b <= height: the coefficients
    of the product of 1/(1 - x^a y^b) over the six positive roots."""
    table = {(a, b): 0 for a in range(height + 1) for b in range(height + 1 - a)}
    table[(0, 0)] = 1
    for ra, rb in G2_POSITIVE_ROOTS:
        for a in range(ra, height + 1):
            for b in range(rb, height + 1 - a):
                table[(a, b)] += table[(a - ra, b - rb)]
    return table


def weight_height(w1, w2):
    """(a, b) with w1*Lambda_1 + w2*Lambda_2 = -(a*alpha_1 + b*alpha_2).

    alpha_1 = 2 Lambda_1 - Lambda_2 and alpha_2 = -3 Lambda_1 + 2 Lambda_2
    (Cartan matrix rows <h_i, alpha_j>); the inverse change of basis is
    unimodular.
    """
    return -(2 * w1 + 3 * w2), -(w1 + 2 * w2)


def check_graph_json(text, depth, table):
    """Per-weight node counts and the edge count against the Kostant oracle.

    Lowering operators are total on B(infinity), so every node above the
    last level has exactly two out-edges.
    """
    payload = json.loads(text)
    census = {}
    for node in payload["nodes"]:
        a, b = weight_height(*node["weight"])
        if a + b != node["depth"]:
            return f"node {node['id']} depth {node['depth']} != weight height {a + b}"
        census[(a, b)] = census.get((a, b), 0) + 1
    for (a, b), expected in table.items():
        if census.get((a, b), 0) != expected:
            return f"count at -({a}a1+{b}a2) is {census.get((a, b), 0)}, expected {expected}"
    if len(census) != sum(1 for v in table.values() if v):
        return "weights outside the oracle's range"
    return _check_sizes(len(payload["nodes"]), len(payload["edges"]), depth, table)


def check_graph_dot(text, depth, table):
    lines = text.splitlines()
    nodes = sum(1 for line in lines if "[label=\"" in line)
    edges = sum(1 for line in lines if " -> " in line)
    return _check_sizes(nodes, edges, depth, table)


def _check_sizes(nodes, edges, depth, table):
    want_nodes = sum(table.values())
    want_edges = 2 * sum(v for (a, b), v in table.items() if a + b < depth)
    if (nodes, edges) != (want_nodes, want_edges):
        return f"{nodes} nodes / {edges} edges, expected {want_nodes} / {want_edges}"
    return None


def _reference_kernel():
    table = {}
    for k in range(4000):
        key = (k % 11, k % 17)
        table[key] = (table.get(key, (0, 0))[0] + k, key)
    rows = [(a, b, f"{a}:{b}") for (a, b), _v in sorted(table.items())]
    return sum(len(row[2]) for row in rows)


class SpeedSampler:
    """Times the reference kernel (dicts, tuples, sorting, formatting) on
    entry, on exit and, with an interval, from a SIGALRM handler."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []  # (start, end) of each kernel run, perf_counter

    def _sample(self, _signum=None, _frame=None):
        # With the cyclic GC off, the kernel's time does not depend on the
        # size of the program's heap, only on the host's speed.
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _reference_kernel()
        t1 = time.perf_counter()
        if was_enabled:
            gc.enable()
        self.samples.append((t0, t1))

    def __enter__(self):
        self._sample()
        if self.interval:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, start, end):
        """Seconds of program work in ``[start, end]`` and the speed factor
        from the kernel runs within the window around it (at least three)."""
        handler = sum(b - a for a, b in self.samples if start <= a and b <= end)
        gaps = [(max(0.0, start - b, a - end), b - a) for a, b in self.samples]
        near = [t for gap, t in gaps if gap <= SPEED_WINDOW_S]
        if len(near) < 3:
            near = [t for _gap, t in sorted(gaps)[:3]]
        return end - start - handler, REFERENCE_S / statistics.median(near)


class Pass:
    """Timings and failures of one pass; a unit is one timed operation."""

    def __init__(self):
        self.timings = []  # (start, end) of each unit, perf_counter
        self.unit_s = []
        self.unit_raw_s = []
        self.unit_names = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def scale(self, sampler):
        for start, end in self.timings:
            seconds, factor = sampler.scale(start, end)
            self.unit_raw_s.append(seconds)
            self.unit_s.append(seconds * factor)

    def unit(self, start, end, error=None, name=None):
        self.timings.append((start, end))
        if name is not None:
            self.unit_names.append(name)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < _MAX_ERRORS:
                self.errors.append(error)


def export_pass(sizes, out_dir):
    """All four realizations x {json, dot} through ``cli.main(["graph", ...])``.

    Neither the outputs nor their fixed order depend on the seed.
    """
    from g2crystal import cli

    spec = sizes["export"]
    depth = spec["depth"]
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(r, fmt) for r in REALIZATIONS for fmt in FORMATS]
    result = Pass()
    done = []
    for realization, fmt in jobs:
        path = out_dir / f"{realization}.{fmt}"
        argv = ["graph", "--realization", realization, "--depth", str(depth),
                "--format", fmt, "--force", "--out", str(path)]
        t0 = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except Exception as exc:  # a failed unit, reported below
            code, error = None, f"{realization}.{fmt}: {type(exc).__name__}: {exc}"
        done.append((realization, fmt, path, (t0, time.perf_counter()), code, error))

    table = kostant_table(depth)
    for realization, fmt, path, timing, code, error in done:
        name = f"{realization}.{fmt}"
        if error is None and code != 0:
            error = f"{name}: exit code {code}"
        if error is None:
            digest = sha256_file(path)
            if digest != spec["sha256"][name]:
                error = f"{name}: sha256 {digest} differs from the pinned digest"
        if error is None:
            check = check_graph_json if fmt == "json" else check_graph_dot
            problem = check(path.read_text(encoding="utf-8"), depth, table)
            error = problem and f"{name}: {problem}"
        path.unlink(missing_ok=True)
        result.unit(*timing, error, name)
    return result


def _suite_call(name, params, seed):
    from g2crystal import verify

    if name == "bookkeeping":
        return verify.check_bookkeeping(count=params["count"], seed=seed)
    calls = {
        "iso": verify.check_iso,
        "census": verify.check_census,
        "lemma-equivalence": verify.check_lemma_equivalence,
        "closure": verify.check_closure,
        "involution": verify.check_involution,
        "shift": verify.check_shift_family,
    }
    return calls[name](params["depth"])


def verify_pass(sizes, rng):
    """The seven suites at the sizes given, in a fixed order; the seed seeds
    the bookkeeping suite's random monomials."""
    spec = sizes["verify"]
    book_seed = rng.randrange(2**32)
    result = Pass()
    done = []
    for name in SUITES:
        t0 = time.perf_counter()
        try:
            report, error = _suite_call(name, spec[name], book_seed), None
        except Exception as exc:  # a failed unit, reported below
            report, error = None, f"{name}: {type(exc).__name__}: {exc}"
        done.append((name, (t0, time.perf_counter()), report, error))
    for name, timing, report, error in done:
        if error is None and not report.ok:
            error = f"{name}: {report.summary()}"
        elif error is None and report.checked != spec[name]["checks"]:
            error = f"{name}: {report.checked} checks, expected {spec[name]['checks']}"
        result.unit(*timing, error, name)
    return result


def walk_words(rng, spec):
    """Operator words with a fixed share of lowering steps, split evenly
    over the two indices, in seeded random order."""
    steps = spec["steps"]
    lowering = round(steps * spec["f_share"])
    raising = steps - lowering
    words = []
    for _ in range(spec["walks"]):
        word = ([("f", 1)] * (lowering // 2) + [("f", 2)] * (lowering - lowering // 2)
                + [("e", 1)] * (raising // 2) + [("e", 2)] * (raising - raising // 2))
        rng.shuffle(word)
        words.append(word)
    return words


def _highest():
    from g2crystal import cliff, minf, monomials, tableaux

    return [minf.highest_minf(), tableaux.highest_tableau(), cliff.highest_cliff(),
            monomials.highest_monomial()]


def _walk_step_error(op, i, before, moved):
    """Why a lockstep step is wrong, or ``None``."""
    from g2crystal import isomorphisms as iso

    images = [y for y, _maps in moved]
    if len({y is None for y in images}) != 1:
        return f"{op}_{i}: the crystal zero in some realizations only"
    if len({maps for _y, maps in moved}) != 1:
        return f"{op}_{i}: wt/eps/phi disagree: {[maps for _y, maps in moved]}"
    if images[0] is None:
        return None
    m, t, c, y = images
    if iso.tableau_to_minf(t) != m or iso.minf_to_tableau(m) != t:
        return f"{op}_{i}: minf and tableau images do not correspond at {t.text()}"
    if iso.tableau_to_cliff(t) != c or iso.cliff_to_tableau(c) != t:
        return f"{op}_{i}: cliff and tableau images do not correspond at {t.text()}"
    if m.to_monomial() != y:
        return f"{op}_{i}: monomial image differs from the expanded minf image at {t.text()}"
    if op == "f" and any(img.e(i) != old for img, old in zip(images, before)):
        return f"e_{i} f_{i} is not the identity at {t.text()}"
    return None


def walk_pass(words, check):
    """Operator words applied in lockstep to minf, tableaux, cliff and the
    generic monomials, each walk from the highest elements.  A unit is one
    step: the operator and ``wt``/``eps``/``phi`` on all four realizations.
    ``check(op, i, before, moved)`` judges each step outside the unit's time
    (:func:`_walk_step_error`, in a traced pass kept out of the spans)."""
    result = Pass()
    for word in words:
        elems = _highest()
        for op, i in word:
            t0 = time.perf_counter()
            try:
                moved = []
                for x in elems:
                    y = x.f(i) if op == "f" else x.e(i)
                    z = x if y is None else y
                    moved.append((y, (z.wt(), z.eps(1), z.eps(2), z.phi(1), z.phi(2))))
                t1 = time.perf_counter()
                error = check(op, i, elems, moved)
            except Exception as exc:  # a failed unit, reported below
                t1, error = time.perf_counter(), f"{op}_{i}: {type(exc).__name__}: {exc}"
            result.unit(t0, t1, error)
            if error is not None:
                elems = _highest()
            elif moved[0][0] is not None:
                elems = [y for y, _maps in moved]
    return result


def run_pass(workload, sizes, seed, interval, walk_check):
    """Inputs from (workload, seed), then the timed pass under a
    :class:`SpeedSampler` with the given interval.  Every pass of a run
    repeats the same work, so its units line up across passes.

    Returns ``(ready, speed, pass)``: the monotonic time at which the inputs
    were ready, the speed factor right after it, and the scaled pass."""
    rng = random.Random(f"{workload}:{seed}")
    words = walk_words(rng, sizes["walk"]) if workload == "walk" else None
    ready = time.monotonic()
    with SpeedSampler(interval) as sampler:
        if workload == "walk":
            result = walk_pass(words, walk_check)
        elif workload == "verify":
            result = verify_pass(sizes, rng)
        else:
            result = export_pass(sizes, OUT / "export")
    result.scale(sampler)
    return ready, sampler.scale(*sampler.samples[0])[1], result


def _import_program():
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import g2crystal
    import g2crystal.cli  # noqa: F401  (the CLI is part of set-up on every workload)

    import_s = time.perf_counter() - t0
    if Path(g2crystal.__file__).resolve().parent != SRC / "g2crystal":
        raise SystemExit(f"imported g2crystal from {g2crystal.__file__}, not from {SRC}")
    return import_s


def main(argv):
    workload, seed, mode, size_name = argv
    import_s = _import_program()
    sizes = load_sizes(size_name)
    tracer = None
    walk_check = _walk_step_error
    if mode == "trace":
        sys.path.insert(0, str(BENCH))
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
        walk_check = tracer.exclude(_walk_step_error)
    elif mode == "mem":
        import tracemalloc

        tracemalloc.start()
    interval = SAMPLE_INTERVAL_S if mode == "plain" else None
    ready, speed, result = run_pass(workload, sizes, int(seed), interval, walk_check)
    out = {
        "ready": ready,
        "import_s": import_s,
        "speed": speed,
        "unit_s": result.unit_s,
        "unit_raw_s": result.unit_raw_s,
        "unit_names": result.unit_names,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(OUT / f"spans-{workload}.bin")
    if mode == "mem":
        out["traced_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
