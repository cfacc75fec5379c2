"""Deterministic call-budget gate on the simulator's per-access cost.

Runs one fixed small point (linear_regression, 8 threads, scale 0.1,
d=8) under :mod:`cProfile` and counts the Python calls made by frames
of the ``repro`` package per simulated memory access.  Unlike wall
time, the count repeats exactly from run to run, so CI can hold it to
a tight ceiling: the value measured when the ceiling was last set,
plus 5 %.  A change that adds frames to the per-access path fails here
even on a runner too noisy to show it in seconds.

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

#: the gate point: ``run_workload_result`` arguments
POINT = dict(name="linear_regression", d_distance=8, num_threads=8,
             scale=0.1, seed=12345)

#: Python minor version -> measured repro calls per access, and the
#: ceiling the gate enforces (measured + 5 %)
MEASURED = {(3, 11): 12.65}
CEILINGS = {v: round(m * 1.05, 2) for v, m in MEASURED.items()}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def repro_calls_per_access() -> float:
    """Profile one run of :data:`POINT`; repro-frame calls / accesses."""
    from repro.harness.experiment import run_workload_result

    kwargs = dict(POINT)
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


def test_repro_calls_per_access_within_ceiling():
    ceiling = CEILINGS.get(sys.version_info[:2])
    if ceiling is None:
        pytest.skip(f"no call-budget ceiling pinned for Python "
                    f"{sys.version_info[0]}.{sys.version_info[1]}")
    measured = repro_calls_per_access()
    assert measured <= ceiling, (
        f"{measured:.3f} repro calls per simulated access exceeds the "
        f"ceiling {ceiling} (measured {MEASURED[sys.version_info[:2]]} "
        f"when it was set): a change added frames to the per-access path"
    )
