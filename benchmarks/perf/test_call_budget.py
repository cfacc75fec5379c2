"""Deterministic call-budget gate on the simulator's per-access cost.

Runs fixed small points under :mod:`cProfile` and counts the Python
calls made by frames of the ``repro`` package per simulated memory
access.  Unlike wall time, the count repeats exactly from run to run,
so CI can hold it to a tight ceiling: the value measured when the
ceiling was last set, plus 5 %.  A change that adds frames to the
per-access path fails here even on a runner too noisy to show it in
seconds.  Two points are gated:

* ``linear_regression`` (8 threads, scale 0.1, d=8): mostly L1 hits,
  so it gates the core loop, the L1 hit path and engine dispatch;
* ``bad_dot_product`` (Listing 1, 8 threads, scale 0.25, the
  ``ghostwriter`` protocol, d=4): false sharing, so it also gates the
  miss -> directory -> NoC -> fill round trip.

Call counts depend on the interpreter (for example, 3.12 inlines list
comprehensions, which 3.11 runs as frames of their own), so ceilings
are pinned per Python minor version; a version without a pinned
ceiling skips the gate rather than borrowing another version's.  Run
with::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_call_budget.py -q
"""
from __future__ import annotations

import cProfile
import os
import sys

import pytest

import repro

#: the gate points: ``run_workload_result`` arguments by point name
POINTS = {
    "linear_regression": dict(name="linear_regression", d_distance=8,
                              num_threads=8, scale=0.1, seed=12345),
    "bad_dot_product": dict(name="bad_dot_product", d_distance=4,
                            num_threads=8, scale=0.25, seed=12345,
                            protocol="ghostwriter"),
}

#: Python minor version -> measured repro calls per access of each
#: point; the gate enforces measured + 5 %
MEASURED = {(3, 11): {"linear_regression": 10.13,
                      "bad_dot_product": 29.84}}
CEILINGS = {v: {name: round(m * 1.05, 2) for name, m in points.items()}
            for v, points in MEASURED.items()}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def repro_calls_per_access(point: str = "linear_regression") -> float:
    """Profile one run of ``POINTS[point]``; repro-frame calls per
    simulated access."""
    from repro.harness.experiment import run_workload_result

    kwargs = dict(POINTS[point])
    name = kwargs.pop("name")
    # warm process-wide memos (topologies, routes) so the profiled run
    # counts the same calls whatever ran before it in this process
    run_workload_result(name, **kwargs)
    profiler = cProfile.Profile()
    profiler.enable()
    result, _cfg = run_workload_result(name, **kwargs)
    profiler.disable()
    profiler.create_stats()
    calls = sum(
        entry[1] for (filename, _line, _fn), entry in profiler.stats.items()
        if os.path.abspath(filename).startswith(_REPRO_DIR)
    )
    l1 = result.machine.stats.child("l1")
    return calls / (l1.total("loads") + l1.total("stores"))


@pytest.mark.parametrize("point", sorted(POINTS))
def test_repro_calls_per_access_within_ceiling(point):
    version = sys.version_info[:2]
    ceilings = CEILINGS.get(version)
    if ceilings is None:
        pytest.skip(f"no call-budget ceiling pinned for Python "
                    f"{version[0]}.{version[1]}")
    measured = repro_calls_per_access(point)
    assert measured <= ceilings[point], (
        f"{point}: {measured:.3f} repro calls per simulated access "
        f"exceeds the ceiling {ceilings[point]} (measured "
        f"{MEASURED[version][point]} when it was set): a change added "
        f"frames to the per-access path"
    )
