"""Benchmark runner for the axial library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Workloads: albert, paper-suite, miyamoto, gaussian (see bench/NOTES.md).

--trace 0 reports the end-to-end metrics:
  run_s        median time of one workload iteration (set-up excluded),
               including the comparison with the reference answers
  setup_s      median of 5 set-ups: import, input generation, catalog.build,
               loading the reference answers
  peak_rss_mb  peak resident memory of this process
--trace 1 reports the per-layer metrics from traced passes, a scalar counting
pass and ns/op timings on sampled operands, plus the tracing overhead.

Every time is wall time scaled to a reference machine speed measured while
it runs (see speed.py); the wall times are printed as well.

Every iteration's answers are checked; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Without the
library (no ./src/axial) the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from speed import SpeedProbe
from workloads import WORKLOADS, Library, LibraryMissing, compare, load_reference

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5


class Tally:
    """Checks attempted and failed; an exception counts as one failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, checks):
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(name)

    def error(self, what):
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{what}: exception")
        traceback.print_exc(file=sys.stderr)


def run_iteration(workload, lib, state, tally):
    """One iteration and its checks; returns its start and end times."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        answers, checks = workload.iterate(lib, state)
        tally.add(compare(answers, state["reference"]))
        tally.add(checks)
    except Exception:  # a crash is a failed check, and the run goes on
        tally.error(workload.name)
    return t0, time.perf_counter()


def measure(workload, lib, state, tally, seconds, probe):
    """Iterate while the next iteration is predicted to end within `seconds`
    (at least once); returns the wall times and the times at reference speed."""
    walls, scaled = [], []
    start = time.perf_counter()
    while True:
        t0, t1 = run_iteration(workload, lib, state, tally)
        walls.append(t1 - t0)
        scaled.append((t1 - t0) * probe.factor(t0, t1))
        if t1 - start + statistics.median(walls) > seconds:
            return walls, scaled


def prepare(workload, lib, seed):
    state = workload.prepare(lib, workload.draw(seed))
    state["reference"] = load_reference(workload.name)
    return state


def setup(workload, seed):
    lib = Library(ROOT)
    return lib, prepare(workload, lib, seed)


def end_to_end(workload, args, tally, probe):
    setups = []
    start = time.perf_counter()
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        lib, state = setup(workload, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_factor = probe.factor(start, time.perf_counter())
    walls, scaled = measure(workload, lib, state, tally, args.seconds, probe)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = statistics.median(scaled)
    setup_s = statistics.median(setups) * setup_factor
    print(f"run_s        {run_s:.4f} s   median of {len(scaled)} iterations at reference "
          f"speed (wall: median {statistics.median(walls):.4f}, min {min(walls):.4f}, "
          f"max {max(walls):.4f})")
    print(f"setup_s      {setup_s:.4f} s   median of {len(setups)} set-ups at reference "
          f"speed (wall: median {statistics.median(setups):.4f}, speed factor "
          f"{setup_factor:.3f})")
    print(f"peak_rss_mb  {rss:.1f} MB")
    return lib, {
        "run_s": {"value": run_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(build_tracer, tr):
    """Per-layer metrics of one traced pass: `build_tracer` covered the
    set-up, `tr` the iteration."""
    m = {f"{layer}.self_s": tr.layer_self(layer) for layer in tracing.LAYERS
         if layer != "catalog"}
    c = tr.counts

    def calls(*names):
        for name in names:
            m[f"{name}.calls"] = tr.calls(name)

    def busy(*names):
        for name in names:
            m[f"{name}.busy_s"] = tr.busy(name)

    calls("spectral.eigen_decompose", "spectral.components", "spectral.check_axis",
          "spectral.char_poly")
    busy("spectral.eigen_decompose", "spectral.components", "spectral.check_axis",
         "spectral.char_poly", "spectral.field_roots", "spectral.minimal_law")
    m["spectral.eigen_decompose.distinct_ratio"] = _ratio(
        tr.distinct_pairs(), tr.calls("spectral.eigen_decompose"))

    m["extension.condition1_rows.rows"] = c["condition1_rows.rows"]
    m["extension.condition2_rows.rows"] = c["condition2_rows.rows"]
    calls("extension.cocycle_space", "extension.build_extension")
    busy("extension.condition1_rows", "extension.condition2_rows",
         "extension.cocycle_space", "extension.build_extension",
         "extension.extension_axiality", "extension.is_split")
    m["extension.cocycle_space.rank_ratio"] = _ratio(
        c["cocycle_space.rank"], c["cocycle_space.rows_fed"])

    calls("linalg.RowReducer.add_row", "linalg.Matrix.apply", "linalg.Matrix.mul",
          "linalg.Matrix.inverse", "linalg.Matrix.kernel",
          "linalg.Subspace.contains_vector")
    busy("linalg.RowReducer.add_row", "linalg.Matrix.apply", "linalg.Matrix.mul",
         "linalg.Matrix.inverse", "linalg.Matrix.kernel")
    m["linalg.RowReducer.add_row.gain_ratio"] = _ratio(
        c["add_row.gains"], tr.calls("linalg.RowReducer.add_row"))

    calls("algebra.product", "algebra.product_sparse", "algebra.jordan_check",
          "algebra.left_mult_matrix")
    busy("algebra.product", "algebra.jordan_check", "algebra.left_mult_matrix",
         "algebra.frobenius_space", "algebra.subalgebra_closure")

    calls("miyamoto.tau_automorphism", "miyamoto.is_automorphism")
    busy("miyamoto.tau_automorphism", "miyamoto.is_automorphism",
         "miyamoto.group_closure", "miyamoto.axis_closure")
    m["miyamoto.group_closure.new_ratio"] = _ratio(
        c["group_closure.added"], c["group_closure.products"])
    m["miyamoto.axis_closure.new_ratio"] = _ratio(
        c["axis_closure.added"], c["axis_closure.images"])

    m["catalog.build.busy_s"] = build_tracer.busy("catalog.build") + tr.busy("catalog.build")
    return m


def _at_reference_speed(metrics, factor):
    return {name: value * factor if name.endswith("_s") else value
            for name, value in metrics.items()}


def traced(workload, args, tally, probe):
    """Untraced iterations, then traced passes, then one counting pass.
    Every time is scaled to the reference speed."""
    run_start = time.perf_counter()
    lib, state = setup(workload, args.seed)
    half = args.seconds / 2.0
    _, untraced = measure(workload, lib, state, tally, half, probe)

    passes, traced_times, start = [], [], time.perf_counter()
    while True:
        gc.collect()
        p0 = time.perf_counter()
        with tracing.SpanTracer() as build_tracer:
            state = prepare(workload, lib, args.seed)
        with tracing.SpanTracer() as tr:
            t0, t1 = run_iteration(workload, lib, state, tally)
        traced_times.append((t1 - t0) * probe.factor(t0, t1))
        passes.append(_at_reference_speed(span_metrics(build_tracer, tr),
                                          probe.factor(p0, t1)))
        if t1 - start + (t1 - t0) > half:
            break
    for name in tr.missing:
        print(f"warning: trace target {name} not found; its metrics read 0",
              file=sys.stderr)
    print("heaviest call-tree edges of the last traced pass (parent -> child, "
          "calls, busy s):", file=sys.stderr)
    for parent, child, n, busy in tr.call_tree():
        print(f"  {parent} -> {child}  {n}  {busy:.4f}", file=sys.stderr)

    counter = tracing.ScalarCounter(lib.scalars.Scalar)
    state = prepare(workload, lib, args.seed)
    with counter:
        run_iteration(workload, lib, state, tally)
    for name in counter.missing:
        print(f"warning: scalar method {name} not found", file=sys.stderr)

    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    for op, n in counter.counts.items():
        metrics[f"scalars.{op}.calls"] = n
    tags = lib.scalars.FieldTag
    n0 = time.perf_counter()
    ns = {(op, suffix): value
          for suffix, tag in (("qq", tags.QQ), ("qi", tags.QI))
          for op, value in tracing.ns_per_op(counter.samples, tag).items()}
    ns_factor = probe.factor(n0, time.perf_counter())
    for (op, suffix), value in ns.items():
        metrics[f"scalars.{op}.ns_{suffix}"] = value * ns_factor
    run_untraced = statistics.median(untraced)
    run_traced = statistics.median(traced_times)
    metrics["trace.untraced_run_s"] = run_untraced
    metrics["trace.traced_run_s"] = run_traced
    metrics["trace.overhead_s"] = run_traced - run_untraced
    metrics["trace.speed_factor"] = probe.factor(run_start, time.perf_counter())
    print(f"tracing overhead {run_traced - run_untraced:.4f} s on run_s "
          f"(traced {run_traced:.4f} s over {len(traced_times)} passes, "
          f"untraced {run_untraced:.4f} s over {len(untraced)} iterations)")
    return lib, {name: {"value": value, "unit": _unit(name)}
                 for name, value in sorted(metrics.items())}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_factor")):
        return "ratio"
    if ".ns_" in name:
        return "ns"
    return "count"


def _commit(root):
    """The checked-out commit, read from .git without running git; None
    outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(lib):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "rational_backend": lib.scalars.Rat.__module__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tally = Tally()
    try:
        with SpeedProbe() as probe:
            if args.trace:
                lib, metrics = traced(workload, args, tally, probe)
            else:
                lib, metrics = end_to_end(workload, args, tally, probe)
    except LibraryMissing as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    for name in tally.failures[:20]:
        print(f"FAILED {name}", file=sys.stderr)
    print(f"failed_ratio {tally.failed / tally.attempted:.6f}   "
          f"({tally.failed} of {tally.attempted} checks failed)")
    print("environment " + json.dumps(environment(lib), sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
