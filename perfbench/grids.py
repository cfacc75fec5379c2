"""The benchmark's three workloads: their grid points, one timed pass
over them, and the row check applied to every point.

Every workload runs on the Table 1 machine (24 cores, 6x4 mesh),
through the simulator's public sweep entry point
:func:`repro.harness.parallel.run_grid`.  Pass ``k`` of a run draws its
inputs from :func:`pass_seed`, so a run averages over
:data:`SEEDS_PER_RUN` input sets rather than timing one of them.
"""
from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
import time
import zlib
from pathlib import Path

from repro.coherence.policy import available_protocols, get_protocol
from repro.harness.experiment import DEFAULT_SCALE, DEFAULT_THREADS
from repro.harness.options import RunOptions
from repro.harness.parallel import GridFailure, GridPoint, run_grid
from repro.workloads.registry import PAPER_WORKLOADS, PROGRAM_CACHE

DEFAULT_SEED = 12345
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: distinct input sets a run cycles through, one per pass
SEEDS_PER_RUN = 8
#: ``timeout_grid`` runs at half the paper scale: its batch cost swings
#: with the input data, so a run needs several passes to average over
TIMEOUT_GRID_SCALE = DEFAULT_SCALE / 2

#: Listing 1's false-sharing microbenchmark, as ``fig_protocols`` runs it
_LISTING1 = dict(n_points=8192, max_value=3)


def _fig_sweep(seed: int) -> list[GridPoint]:
    return [
        GridPoint(app, dict(d_distance=d, num_threads=DEFAULT_THREADS,
                            scale=DEFAULT_SCALE, seed=seed),
                  label=f"{app} d={d}")
        for app in PAPER_WORKLOADS for d in (0, 4, 8)
    ]


def _timeout_grid(seed: int) -> list[GridPoint]:
    return [
        GridPoint(app, dict(d_distance=d, gi_timeout=gi,
                            num_threads=DEFAULT_THREADS,
                            scale=TIMEOUT_GRID_SCALE, seed=seed),
                  label=f"{app} d={d} gi={gi}")
        for app in PAPER_WORKLOADS for d in (4, 8) for gi in (128, 512, 1024)
    ]


def _false_sharing(seed: int) -> list[GridPoint]:
    return [
        GridPoint("bad_dot_product",
                  dict(d_distance=4 if get_protocol(p).approx else 0,
                       num_threads=DEFAULT_THREADS, scale=DEFAULT_SCALE,
                       seed=seed, protocol=p, **_LISTING1),
                  label=f"protocol={p}")
        for p in available_protocols()
    ]


#: workload name -> (function making its grid points, sweep backend)
WORKLOADS = {
    "fig_sweep": (_fig_sweep, "serial"),
    "timeout_grid": (_timeout_grid, "batch"),
    "false_sharing": (_false_sharing, "serial"),
}


def pass_seed(seed: int, k: int) -> int:
    """Input-data seed of pass ``k`` of a run at ``seed``.

    Pass 0 uses ``seed`` itself; the others cycle through
    ``SEEDS_PER_RUN - 1`` seeds derived from it.
    """
    k %= SEEDS_PER_RUN
    return seed if k == 0 else zlib.crc32(f"{seed}/{k}".encode())


def points_for(workload: str, seed: int) -> list[GridPoint]:
    """The grid points of ``workload`` with inputs drawn from ``seed``."""
    return WORKLOADS[workload][0](seed)


def run_pass(workload: str, points: list[GridPoint], scratch: Path):
    """One cold pass over ``points``; returns ``(outcomes, wall seconds)``.

    The program cache is cleared and the previous pass's garbage
    collected first, so every pass starts as a new ``repro.harness.cli``
    process would and records its op streams afresh.  The batch backend
    commits into a result store that is new for this pass.
    """
    backend = WORKLOADS[workload][1]
    options = None
    if backend == "batch":
        scratch.mkdir(parents=True, exist_ok=True)
        store = scratch / "results.db"
        for stale in scratch.glob("results.db*"):
            stale.unlink()
        options = RunOptions(backend="batch", store=str(store))
    PROGRAM_CACHE.clear()
    gc.collect()
    t0 = time.perf_counter()
    outcomes = run_grid(points, options=options)
    return outcomes, time.perf_counter() - t0


# ---------------------------------------------------------------------
# row check
# ---------------------------------------------------------------------
def _canonical(value):
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _canonical(getattr(value, f.name)))
                     for f in dataclasses.fields(value) if f.compare)
    if isinstance(value, dict):
        return tuple(sorted((_canonical(k), _canonical(v))
                            for k, v in value.items()))
    if isinstance(value, enum.Enum):
        return value.name
    return value


def row_digest(row) -> str:
    """Digest of a RunRow's compare fields (every simulated statistic)."""
    text = repr(_canonical(row)).encode("utf-8")
    return hashlib.blake2b(text, digest_size=8).hexdigest()


def load_digests(workload: str) -> dict[str, dict[str, str]]:
    """The recorded digests of ``workload``'s default-seed passes:
    input-data seed -> point label -> digest."""
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def check_rows(points, outcomes, expected: dict[str, str] | None):
    """Check every point's outcome; returns ``(digests, failures)``.

    A point fails on a ``GridFailure`` (an exception or invariant
    violation inside the run), on a nonzero error from a precise run
    (d=0 or a protocol without approximate states), or on a digest that
    differs from ``expected`` when that is given.
    """
    digests: dict[str, str] = {}
    failures: list[str] = []
    for point, outcome in zip(points, outcomes):
        label = point.label
        if isinstance(outcome, GridFailure):
            failures.append(f"{label}: {outcome.render()}")
            continue
        digests[label] = digest = row_digest(outcome)
        protocol = point.kwargs.get("protocol") or "ghostwriter"
        precise = (point.kwargs["d_distance"] == 0
                   or not get_protocol(protocol).approx)
        if precise and outcome.error_pct != 0:
            failures.append(f"{label}: precise run has error_pct "
                            f"{outcome.error_pct!r}")
        if expected is not None and expected.get(label) != digest:
            failures.append(f"{label}: digest {digest} != recorded "
                            f"{expected.get(label)}")
    return digests, failures


def totals(outcomes) -> tuple[int, int]:
    """(simulated cycles, loads + stores) summed over a pass's rows."""
    rows = [o for o in outcomes if not isinstance(o, GridFailure)]
    return (sum(r.cycles for r in rows),
            sum(r.loads + r.stores for r in rows))


class RowCheck:
    """The row check over every pass of one run.

    At the default seed every point must match its recorded digest; at
    any seed a pass must match the run's earlier passes on the same
    input-data seed.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.recorded = (load_digests(workload) if seed == DEFAULT_SEED
                         else None)
        if self.recorded is not None and len(self.recorded) < SEEDS_PER_RUN:
            raise SystemExit(f"perfbench: recorded digests for {workload} "
                             f"cover {len(self.recorded)} of "
                             f"{SEEDS_PER_RUN} pass seeds; run "
                             f"--record-digests")
        self.seen: dict[int, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0                 #: failed point runs
        self.messages: list[str] = []

    def check(self, points, outcomes, data_seed: int) -> None:
        """Check one pass's outcomes on inputs drawn from ``data_seed``."""
        expected = (None if self.recorded is None
                    else self.recorded.get(str(data_seed), {}))
        digests, failures = check_rows(points, outcomes, expected)
        first = self.seen.setdefault(data_seed, digests)
        if first is not digests:
            failures += [f"{label}: digest changed between passes"
                         for label, d in digests.items()
                         if first.get(label) != d]
        self.attempted += len(points)
        self.failed += len({m.split(":", 1)[0] for m in failures})
        self.messages += [f"seed {data_seed}: {m}" for m in failures]

    def summary(self) -> str:
        runs = self.attempted
        if self.recorded is None:
            how = "digests reported, not compared (non-default seed)"
        else:
            how = (f"{runs - self.failed}/{runs} point runs match the "
                   f"recorded seed-{DEFAULT_SEED} digests")
        return (f"row check: {how}; failed_frac = "
                f"{self.failed / self.attempted:.6g} "
                f"({self.failed} of {self.attempted} point runs failed)")
