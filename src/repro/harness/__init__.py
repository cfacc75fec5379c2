"""repro.harness subpackage.

The one public import most callers need is :class:`RunOptions` — the
consolidated run-configuration value accepted by ``experiment_config``,
``run_workload``, ``run_pair``, ``SweepCache``, the ``sweep_*`` helpers,
``faults.sweep`` and the figures CLI.  Every entry point that runs more
than one point hands them to :func:`repro.harness.parallel.run_grid`,
so the options are also the one place that says how a grid runs
(``jobs``, ``backend``, ``store``, retries).
"""
from repro.harness.options import RunOptions

__all__ = ["RunOptions"]
