"""Repository benchmark: host time of the Ghostwriter simulator on the
sweeps its users wait for.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig_sweep --seed 12345 \\
        --seconds 30 --trace 0

``--trace 0`` times cold passes over the workload's grid with tracing
off, each on the next of the run's input sets, and reports the
end-to-end metrics as medians over the passes; ``--trace 1`` runs one
untimed pass and one pass under the layer tracer and reports the
per-layer metrics.  Every point of every pass goes through the row
check.  The last line of standard output is one JSON object; the lines
above it print every metric by name with its unit.  See
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space of a run (result stores, the span dump); ignored by git
SCRATCH = ROOT / ".perfbench_out"
SETUP_PROBES = 5
#: share of the traced wall time the layer self times must account for
ATTRIBUTION_MIN = 0.95
WORKLOAD_NAMES = ("fig_sweep", "timeout_grid", "false_sharing")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="run every workload serially at the default seed "
                        "and rewrite perfbench/digests.json")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.record_digests:
        p.error("--workload is required")
    return args


def _import_repro() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources under "
                         f"{ROOT / 'src'}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------
# set-up time: process start to the first point ready to run
# ---------------------------------------------------------------------
def _setup_probe(args) -> int:
    """Child side: import, build the first point's machine, report."""
    from repro.harness.experiment import experiment_config
    from repro.workloads.registry import create

    import grids

    point = grids.points_for(args.workload, args.seed)[0]
    kwargs = dict(point.kwargs)
    d = kwargs.pop("d_distance")
    gi = kwargs.pop("gi_timeout", 1024)
    protocol = kwargs.pop("protocol", None)
    threads = kwargs.pop("num_threads")
    cfg = experiment_config(enabled=d > 0, d_distance=max(d, 1),
                            gi_timeout=gi, num_cores=threads,
                            protocol=protocol)
    create(point.workload, num_threads=threads, **kwargs).prepare(cfg)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os._exit(0)


def _measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first point
    being ready, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{proc.returncode})")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------
# timed and traced runs
# ---------------------------------------------------------------------
def _print_metrics(metrics: dict) -> None:
    width = max(map(len, metrics))
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")


def _untraced(args, grids, checker) -> dict:
    setup = _measure_setup(args)
    walls: list[float] = []
    cycle_rates: list[float] = []
    access_rates: list[float] = []
    start = time.perf_counter()
    for k in itertools.count():
        data_seed = grids.pass_seed(args.seed, k)
        points = grids.points_for(args.workload, data_seed)
        outcomes, wall = grids.run_pass(args.workload, points, SCRATCH)
        checker.check(points, outcomes, data_seed)
        cycles, accesses = grids.totals(outcomes)
        walls.append(wall)
        cycle_rates.append(cycles / wall)
        access_rates.append(accesses / wall)
        if k == 0:
            # peak of a fresh process over one pass on the run's own seed
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start + wall > args.seconds:
            break
    print(f"passes: {len(walls)}  wall_s per pass: "
          + " ".join(f"{w:.3f}" for w in walls))
    print("set-up probes: " + " ".join(f"{s:.3f}" for s in setup))
    median = statistics.median
    return {
        "setup_s": {"value": median(setup), "unit": "s"},
        "wall_s": {"value": median(walls), "unit": "s"},
        "sim_cycles_per_s": {"value": median(cycle_rates),
                             "unit": "cycles/s"},
        "accesses_per_s": {"value": median(access_rates),
                           "unit": "accesses/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def _traced(args, grids, checker) -> dict:
    import layers
    from repro.workloads.registry import PROGRAM_CACHE

    points = grids.points_for(args.workload, args.seed)

    outcomes, untraced_wall = grids.run_pass(args.workload, points, SCRATCH)
    checker.check(points, outcomes, args.seed)
    (outcomes, wall), stats, tracer = layers.profile_pass(
        lambda: grids.run_pass(args.workload, points, SCRATCH))
    checker.check(points, outcomes, args.seed)
    cache_hits = PROGRAM_CACHE.hits
    metrics, table = layers.layer_metrics(
        stats, tracer, wall=wall, untraced_wall=untraced_wall,
        cycles=grids.totals(outcomes)[0], points=len(points),
        cache_hits=cache_hits)
    print(table)
    covered = 1.0 - metrics["unattributed_s"]["value"] / wall
    if covered < ATTRIBUTION_MIN:
        checker.messages.append(
            f"attribution: layers cover {100 * covered:.1f}% of the traced "
            f"wall time, below {100 * ATTRIBUTION_MIN:.0f}%")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    dump = SCRATCH / f"trace-{args.workload}-{args.seed}.json"
    dump.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "spans": [vars(s) for s in tracer.spans],
        "metrics": metrics,
    }))
    print(f"spans: {len(tracer.spans)} written to "
          f"{dump.relative_to(ROOT)}")
    return metrics


def _record_digests() -> int:
    import grids
    from repro.harness.parallel import run_grid
    from repro.workloads.registry import PROGRAM_CACHE

    recorded: dict = {}
    for workload in WORKLOAD_NAMES:
        for k in range(grids.SEEDS_PER_RUN):
            data_seed = grids.pass_seed(grids.DEFAULT_SEED, k)
            points = grids.points_for(workload, data_seed)
            PROGRAM_CACHE.clear()
            outcomes = run_grid(points)  # serial: the reference rows
            digests, failures = grids.check_rows(points, outcomes, None)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            recorded.setdefault(workload, {})[str(data_seed)] = digests
            print(f"{workload} seed {data_seed}: {len(digests)} digests",
                  flush=True)
    grids.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                             + "\n")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _import_repro()
    if args.setup_probe:
        return _setup_probe(args)
    if args.record_digests:
        return _record_digests()
    import grids

    checker = grids.RowCheck(args.workload, args.seed)
    print(f"workload {args.workload}: "
          f"{len(grids.points_for(args.workload, args.seed))} points, "
          f"seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            metrics = _traced(args, grids, checker)
        else:
            metrics = _untraced(args, grids, checker)
    finally:
        for stale in SCRATCH.glob("results.db*"):
            stale.unlink()
    for message in checker.messages:
        print(f"FAILED {message}")
    print(checker.summary())
    print("metrics:")
    _print_metrics(metrics)
    print(json.dumps({
        "correct": not checker.messages,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
