"""End-to-end ``World`` benchmark: one workload per invocation.

    python3 perfbench/run.py --workload halo_tempi --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and forwards their output.

The process pins itself to one CPU before the simulator is imported, and
host times are process CPU time (see README.md).
``--trace 0`` prints the end-to-end metrics (tracing off).
``--trace 1`` runs an untraced and a traced timed phase back to back and
prints the per-layer metrics of the traced one.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import Tracer, booked_messages, layer_totals

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

#: Layers whose timed-phase calls and self times are reported per iteration.
ITERATION_LAYERS = (
    "mpi.typemap", "mpi.baseline", "gpu.kernels", "mpi.p2p", "mpi.world", "machine.nic",
    "tempi.progress", "tempi.selection", "tempi.executor", "tempi.cache",
)
#: Layers reported per world set-up (their work happens before the timed
#: phase: every workload repeats one exchange, so plans compile in warm-up).
SETUP_LAYERS = ("tempi.plan", "tempi.commit")
TEMPI_LAYERS = tuple(
    layer for layer in ITERATION_LAYERS + SETUP_LAYERS if layer.startswith("tempi.")
)

#: Layer-coverage self-check: (metric, comparison, value) per workload.  A
#: workload that stops exercising (or starts exercising) a layer fails here.
COVERAGE = {
    "halo_tempi": (
        ("mpi.typemap.calls", "==", 0),
        ("mpi.baseline.calls", "==", 0),
        ("gpu.kernels.calls", ">", 0),
        ("tempi.executor.calls", ">", 0),
        ("tempi.plan.calls", ">", 0),
        ("machine.nic.batched_share", "==", 0),
        ("tempi.plan.plan_cache_hit_ratio", ">=", 0.9),
    ),
    "halo_baseline": tuple(
        (f"{layer}.calls", "==", 0) for layer in TEMPI_LAYERS
    ) + (
        ("mpi.typemap.calls", ">", 0),
        ("mpi.p2p.calls", ">", 0),
    ),
    "alltoall_small": (
        ("mpi.typemap.calls", "==", 0),
        ("machine.nic.batched_share", ">", 0),
        ("tempi.plan.plan_cache_hit_ratio", ">=", 0.9),
        ("tempi.selection.selection_memo_hit_ratio", ">=", 0.9),
    ),
}

_COMPARE = {
    "==": lambda a, b: a == b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def tail_percentile(samples: list) -> tuple:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for pct in (75, 90, 95, 99):
        if len(samples) * (100 - pct) / 100 >= 10:
            best = pct
    if best is None:
        return None, None
    ordered = sorted(samples)
    rank = math.ceil(best / 100 * len(ordered)) - 1
    return best, ordered[max(rank, 0)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<44} {value:>14.6g} {unit:<8} {note}".rstrip())


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU (the highest allowed).

    The simulator holds the GIL, so it uses one core at a time anyway;
    letting the OS move rank threads between cores measures GIL hand-offs
    and scheduler placement instead of the program.  Threads inherit the
    mask, so this must run before any rank (or numpy) thread exists.
    Platforms without CPU affinity (not Linux) run unpinned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def end_to_end(runner, phase) -> dict:
    """End-to-end metrics of an untraced run (printed and returned).

    Host times are process CPU time divided by the host speed of their
    phase, i.e. in seconds of the reference host (see
    ``harness.reference_kernel``).
    """
    from harness import REFERENCE_MS

    speed, setup_speed = runner.host_speed(timed=True), runner.host_speed(timed=False)
    cpus_ms = [c * 1e3 for c in phase.cpus]
    setup_cpu_s = statistics.median(cpu for _, cpu in runner.setup_s)
    metrics = {
        "setup_s": (setup_cpu_s / setup_speed, "s"),
        "iter_ref_ms.mean": (phase.cpu_s * 1e3 / max(phase.attempted, 1) / speed, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    show("iter_ref_ms.p50", statistics.median(cpus_ms) / speed, "ms")
    pct, tail = tail_percentile(cpus_ms)
    if tail is None:
        print(f"{'iter_ref_ms.tail':<44} {'n/a':>14} {'ms':<8} (only {len(cpus_ms)} samples)")
    else:
        show("iter_ref_ms.tail", tail / speed, "ms", f"p{pct}, {len(cpus_ms)} samples")
    show("msgs_per_ref_s", phase.msgs * speed / phase.cpu_s, "msg/s")
    for name, value, timed in (("host_speed", speed, True), ("host_speed.setup", setup_speed, False)):
        show(name, value, "ratio",
             f"mean reference kernel ÷ {REFERENCE_MS} ms, {len(runner.references[timed])} runs")
    show("iter_cpu_ms.p50", statistics.median(cpus_ms), "ms", "process CPU, not normalised")
    show("iter_wall_ms.p50", statistics.median(phase.walls) * 1e3, "ms", "wall clock")
    show("setup_cpu_s", setup_cpu_s, "s", "process CPU, not normalised")
    show("setup_wall_s", statistics.median(wall for wall, _ in runner.setup_s), "s", "wall clock")
    show("virt_iter_us", statistics.median(phase.virt) * 1e6, "us", "virtual, max over ranks")
    show("failed_frac", runner.failed / runner.attempted, "ratio",
         f"{runner.failed}/{runner.attempted} iterations: {runner.exceptions} raised, "
         f"{runner.wrong_bytes} wrong bytes, {runner.mismatches} did not repeat")
    show("timed_iterations", len(cpus_ms), "count", f"setups {len(runner.setup_s)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(runner, untraced, traced, tracer, worlds: int) -> tuple[dict, list]:
    """Per-layer metrics of the traced phase, plus coverage failures."""
    iterations = max(traced.attempted, 1)
    timed = layer_totals(tracer.spans, timed=True)
    setup = layer_totals(tracer.spans, timed=False)
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layers, totals, per in (
        (ITERATION_LAYERS, timed, iterations), (SETUP_LAYERS, setup, worlds)
    ):
        for layer in layers:
            row = totals[layer]
            put(f"{layer}.calls", row.calls / per, "count")
            put(f"{layer}.busy_ms", row.busy_s * 1e3 / per, "ms")
            put(f"{layer}.wait_ms", row.wait_s * 1e3 / per, "ms")
    put("gpu.kernels.bytes_moved", timed["gpu.kernels"].units / iterations, "B")
    put("machine.nic.batched_share", ratio(*booked_messages(tracer.spans)), "ratio")
    for name in ("stalls", "ingest_stalls"):
        put(f"machine.nic.{name}", traced.nic[name] / iterations, "count")
    c = traced.counters
    put("tempi.plan.plan_cache_hit_ratio", ratio(c["plan_cache_hits"], c["plan_cache_misses"]), "ratio")
    put("tempi.selection.selection_memo_hit_ratio",
        ratio(c["selection_memo_hits"], c["selection_memo_misses"]), "ratio")
    put("tempi.cache.buffer_hit_ratio", ratio(c["buffer_hits"], c["buffer_misses"]), "ratio")
    put("tempi.cache.persistent_hit_ratio",
        ratio(c["persistent_hits"], c["persistent_misses"]), "ratio")
    untraced_p50 = statistics.median(untraced.cpus)
    traced_p50 = statistics.median(traced.cpus)
    put("trace.overhead_ratio", traced_p50 / untraced_p50, "ratio")
    put("trace.iterations", traced.attempted, "count")
    for name, entry in metrics.items():
        show(name, entry["value"], entry["unit"])
    # Virtual NIC stall time: deterministic model output, printed only.
    for name in ("stalled_s", "ingest_stalled_s", "fabric_stalled_s"):
        show(f"machine.nic.{name[:-2]}_us", traced.nic[name] * 1e6 / iterations, "us",
             "virtual, per iteration")
    show("iter_cpu_ms.p50.untraced", untraced_p50 * 1e3, "ms")
    show("iter_cpu_ms.p50.traced", traced_p50 * 1e3, "ms")
    show("trace.spans", len(tracer.spans), "count")
    show("trace.repeat_mismatches", traced.mismatches, "count",
         "traced iterations differing from their untraced reference")

    failures = []
    for name, op, bound in COVERAGE[runner.workload.name]:
        value = metrics[name]["value"]
        if not _COMPARE[op](value, bound):
            failures.append(f"coverage: {name} = {value!r}, expected {op} {bound}")
    return metrics, failures


def run_all(args) -> int:
    """Each workload in turn, one child process apiece (its own peak RSS)."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    import workloads
    from harness import Runner

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    runner = Runner(workload)
    print(f"# workload {workload.name}: {workload.nranks} ranks, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    failures: list[str] = []
    if args.trace:
        untraced, model = runner.setup_and_time(args.seconds / 2)
        tracer = Tracer()
        worlds_before = runner.worlds
        traced = runner.traced_phase(model, args.seconds / 2, tracer)
        metrics, failures = per_layer(
            runner, untraced, traced, tracer, runner.worlds - worlds_before
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}.csv")
    else:
        phase, _ = runner.setup_and_time(args.seconds)
        metrics = end_to_end(runner, phase)
    for line in runner.errors[:10]:
        print(f"# failed {line}", file=sys.stderr)
    if len(runner.errors) > 10:
        print(f"# ... {len(runner.errors) - 10} more failures", file=sys.stderr)
    for line in failures:
        print(f"# {line}", file=sys.stderr)
    correct = runner.wrong_bytes == 0 and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
