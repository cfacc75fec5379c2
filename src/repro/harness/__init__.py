"""repro.harness subpackage.

The one public import most callers need is :class:`RunOptions` — the
consolidated run-configuration value accepted by ``experiment_config``,
``run_workload``, ``run_pair``, ``SweepCache``, ``faults.sweep`` and the
figures CLI.
"""
from repro.harness.options import RunOptions

__all__ = ["RunOptions"]
