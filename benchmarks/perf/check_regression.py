#!/usr/bin/env python
"""Perf-regression guard: compare a fresh BENCH_perf.json to the
committed baseline.

CI's perf-guard job reruns ``run_perf.py`` (full mode) on the runner and
fails the build when any *key* benchmark loses more than the allowed
fraction of its committed ops/sec.  Only a conservative subset of
benchmarks guards the build: end-to-end workload numbers on shared CI
runners are too noisy to gate on, while the tight single-path loops
below are stable enough that a >25% drop reliably means a real
regression, not scheduler jitter.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py --out /tmp/now.json
    python benchmarks/perf/check_regression.py /tmp/now.json \
        --baseline BENCH_perf.json --max-drop 0.25
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: benchmarks stable enough to gate CI on (tight loops, low variance)
KEY_BENCHES = (
    "engine_spread_dispatch",
    "engine_same_cycle_dispatch",
    "similarity_scalar",
    "stats_hot_counters",
    "core_step_loop",
    "l1_hit_path_mesi",
    "l1_hit_path_ghostwriter",
    "sweep_wall_clock_batch",
    "noc_route_chiplet",
    "checkpoint_roundtrip",
)

DEFAULT_MAX_DROP = 0.25


def _ops_per_second(report: dict) -> dict[str, float]:
    if report.get("mode") != "full":
        raise SystemExit(
            f"refusing to compare a {report.get('mode')!r}-mode report: "
            "only full-mode timings are meaningful"
        )
    return {row["name"]: row["ops_per_second"]
            for row in report["benchmarks"]}


def check(current: dict, baseline: dict,
          max_drop: float = DEFAULT_MAX_DROP) -> list[str]:
    """Regression messages for every key bench below the allowed floor
    (empty list = pass).

    A guarded bench missing from the *fresh* report is itself a failure
    — a silently deleted or renamed benchmark must not pass the guard.
    A bench missing only from the *baseline* is skipped: it was added
    after the baseline was committed and has nothing to compare against
    yet (the schema validator in run_perf.py keeps fresh reports
    complete)."""
    cur = _ops_per_second(current)
    base = _ops_per_second(baseline)
    problems = []
    for name in KEY_BENCHES:
        if name not in cur:
            problems.append(
                f"{name}: guarded benchmark missing from the fresh "
                f"report — deleted or renamed without updating "
                f"KEY_BENCHES"
            )
            continue
        if name not in base:
            continue
        floor = base[name] * (1.0 - max_drop)
        if cur[name] < floor:
            problems.append(
                f"{name}: {cur[name]:,.0f} ops/s is "
                f"{1.0 - cur[name] / base[name]:.1%} below the committed "
                f"{base[name]:,.0f} ops/s (allowed drop {max_drop:.0%})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="check_regression",
        description="Fail when key benchmarks regress vs the baseline.",
    )
    p.add_argument("current", help="freshly generated BENCH_perf.json")
    p.add_argument("--baseline", default="BENCH_perf.json",
                   help="committed baseline (default BENCH_perf.json)")
    p.add_argument("--max-drop", type=float, default=DEFAULT_MAX_DROP,
                   help="allowed fractional ops/sec drop per key bench "
                        f"(default {DEFAULT_MAX_DROP})")
    args = p.parse_args(argv)

    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    problems = check(current, baseline, args.max_drop)
    if problems:
        print("perf regression detected:")
        for msg in problems:
            print(f"  - {msg}")
        return 1
    cur = _ops_per_second(current)
    base = _ops_per_second(baseline)
    for name in KEY_BENCHES:
        if name in cur and name in base:
            print(f"{name:<32} {cur[name] / base[name]:>7.2f}x baseline")
    print(f"[ok: no key bench dropped more than {args.max_drop:.0%}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
