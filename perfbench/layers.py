"""The traced run: per-layer self time, exact call counts and spans.

A pass runs under :mod:`cProfile`.  Each profiled function belongs to
the layer of its module (:data:`LAYERS`); the self time of a function
outside ``repro`` (a builtin, the standard library, numpy, sqlite) goes
to the layers of the ``repro`` frames that called it, in proportion to
the time each caller spent in it.  Call counts include only ``repro``
frames, which repeat exactly from run to run.

Coarse entry points (``Machine.run``, ``Workload.prepare``,
``MachineCheckpoint.capture``, ``ResultStore.put`` ...) are wrapped in
spans recorded in memory: name, start, end, parent, and the app whose
batch group was running.  Hot entry points (``L1Controller.access``,
``Network.send`` ...) are called millions of times, so their calls and
cumulative time come from the profile instead of a wrapper.
"""
from __future__ import annotations

import cProfile
import contextlib
import dataclasses
import functools
import time
from collections import Counter, defaultdict

import repro.harness.batch as harness_batch
from repro.cache.l1 import L1Controller
from repro.coherence.directory import DirectoryAgent
from repro.core.core import Core
from repro.energy.accounting import EnergyAccountant
from repro.harness.batch import BatchReport
from repro.harness.parallel import GridFailure
from repro.isa import compiled
from repro.noc.network import Network
from repro.scribe.scribe_unit import ScribeUnit
from repro.sim.machine import Machine
from repro.sim.state import MachineCheckpoint
from repro.store.result_store import ResultStore
from repro.workloads.base import Workload

#: layer -> the repro modules (or packages) it folds; first match wins,
#: and a module no entry names goes to ``common``
LAYERS = {
    "engine": ("sim.engine", "sim.machine"),
    "core": ("core", "isa.instructions", "isa.approx"),
    "l1": ("cache.l1", "cache.sram", "cache.mshr"),
    "coherence": ("coherence",),
    "noc": ("noc",),
    "l2_mem": ("cache.l2", "mem"),
    "scribe": ("scribe",),
    "compiled": ("isa.compiled",),
    "workloads": ("workloads",),
    "checkpoint": ("sim.state",),
    "batch": ("harness.batch", "sim.batch"),
    "harness": ("harness", "store", "obs", "energy", "verify", "faults"),
    "common": (),
}

#: hot entry points: calls and cumulative seconds from the profile
HOT = {
    "l1_access": L1Controller.access,
    "l1_receive": L1Controller.receive,
    "directory_receive": DirectoryAgent.receive,
    "network_send": Network.send,
    "scribe_check": ScribeUnit.check,
    "replay_to_completion": compiled.replay_to_completion,
    "program_cache_get": compiled.ProgramCache.get,
    "program_record": compiled.ProgramRecorder.__init__,
    "core_deopt": Core._deoptimize,
}

#: coarse entry points wrapped in spans: (owner, attribute, span name)
SPANNED = (
    (Machine, "run", "Machine.run"),
    (Machine, "resume", "Machine.resume"),
    (Machine, "check_coherence_invariants",
     "Machine.check_coherence_invariants"),
    (Workload, "prepare", "Workload.prepare"),
    (Workload, "collect", "Workload.collect"),
    (MachineCheckpoint, "capture", "MachineCheckpoint.capture"),
    (ResultStore, "put", "ResultStore.put"),
    (EnergyAccountant, "report", "EnergyAccountant.report"),
)

def module_of(filename: str) -> str | None:
    """Dotted module under ``repro`` of a source file, else ``None``."""
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    if at < 0 or not path.endswith(".py"):
        return None
    parts = path[at + len("/repro/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to (``None`` outside repro)."""
    module = module_of(filename)
    if module is None:
        return None
    for layer, prefixes in LAYERS.items():
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return layer
    return "common"


def _code_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def machine_counters(machine) -> Counter:
    """Work counters of one simulated machine."""
    l1 = machine.stats.child("l1")
    noc = machine.stats.child("noc")
    approx_ok = sum(l1.total(k) for k in ("gs_serviced", "gi_serviced",
                                          "gs_store_hits", "gi_store_hits"))
    return Counter(
        events=machine.engine.events_executed,
        loads=l1.total("loads"), stores=l1.total("stores"),
        misses=l1.total("load_misses") + l1.total("store_misses"),
        messages=sum(machine.network.class_counts().values()),
        flit_hops=noc.total("flit_hops"),
        approx_ok=approx_ok,
        would_miss=approx_ok + l1.total("store_miss_on_S")
        + l1.total("store_miss_on_I"),
    )


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    app: str


class Tracer:
    """Spans, machine counters and per-app batch reports of one pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.machine = Counter()
        self.batch_reports: dict[str, BatchReport] = {}
        self._stack: list[int] = []
        self._app = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self._app)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def _wrap(self, fn, name: str):
        tracer = self

        if name in ("Machine.run", "Machine.resume"):
            @functools.wraps(fn)
            def wrapper(machine, *args, **kwargs):
                before = machine_counters(machine)
                with tracer.span(name):
                    out = fn(machine, *args, **kwargs)
                after = machine_counters(machine)
                after.subtract(before)
                tracer.machine.update(after)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    def _batch_by_app(self, batch_fan_out):
        """``batch_fan_out`` run once per app, each with its own report.

        Lockstep groups never span two workloads, so the split runs the
        same groups in the same order as one call over every point.
        """
        tracer = self

        @functools.wraps(batch_fan_out)
        def by_app(points, *, retry=None, on_result=None):
            points = list(points)
            results: list = [None] * len(points)
            apps: dict[str, list[int]] = defaultdict(list)
            for i, point in enumerate(points):
                apps[point.workload].append(i)
            for app, idxs in apps.items():
                rpt = tracer.batch_reports.setdefault(app, BatchReport())
                emit = None
                if on_result is not None:
                    def emit(j, outcome, idxs=idxs):
                        on_result(idxs[j], outcome)
                tracer._app = app
                try:
                    with tracer.span("batch_fan_out"):
                        outs = batch_fan_out([points[i] for i in idxs],
                                             retry=retry, on_result=emit,
                                             report=rpt)
                finally:
                    tracer._app = ""
                for j, outcome in zip(idxs, outs):
                    if isinstance(outcome, GridFailure):
                        outcome = dataclasses.replace(outcome, index=j)
                    results[j] = outcome
            return results
        return by_app

    @contextlib.contextmanager
    def installed(self):
        """Wrap the coarse entry points for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in SPANNED:
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                setattr(owner, attr, wrapped)
            saved.append((harness_batch, "batch_fan_out",
                          harness_batch.batch_fan_out))
            harness_batch.batch_fan_out = self._batch_by_app(
                harness_batch.batch_fan_out)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def span_totals(self, app: str | None = None) -> dict[str, tuple]:
        """name -> (count, seconds) over spans (of one app's batch)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            if app is None or s.app == app:
                out[s.name][0] += 1
                out[s.name][1] += s.end - s.start
        return {k: tuple(v) for k, v in out.items()}


def profile_pass(run):
    """Run ``run()`` under cProfile with spans; returns
    ``(result, profile stats, tracer)``."""
    tracer = Tracer()
    profiler = cProfile.Profile()
    with tracer.installed():
        profiler.enable()
        try:
            result = run()
        finally:
            profiler.disable()
    profiler.create_stats()
    return result, profiler.stats, tracer


def fold(stats) -> tuple[Counter, Counter, float]:
    """Fold profile stats by layer: ``(self seconds, repro calls,
    seconds of frames no repro frame called)``."""
    memo: dict = {}

    def shares(func, seen) -> dict:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        entry = stats.get(func)
        if entry is None or func in seen:
            return {None: 1.0}
        callers = entry[4]
        total = sum(c[2] for c in callers.values())
        if not total:
            return {None: 1.0}
        dist: Counter = Counter()
        for caller, c in callers.items():
            for lay, frac in shares(caller, seen | {func}).items():
                dist[lay] += frac * c[2] / total
        memo[func] = dist
        return dist

    self_s: Counter = Counter()
    calls: Counter = Counter()
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            calls[layer] += nc
        for lay, frac in shares(func, frozenset()).items():
            self_s[lay] += tt * frac
    outside = self_s.pop(None, 0.0)
    return self_s, calls, outside


def hot_totals(stats) -> dict[str, tuple[int, float]]:
    """name -> (calls, cumulative seconds) of each :data:`HOT` entry."""
    out = {}
    for name, fn in HOT.items():
        entry = stats.get(_code_key(fn))
        out[name] = (entry[1], entry[3]) if entry else (0, 0.0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, tracer: Tracer, *, wall: float,
                  untraced_wall: float, cycles: int, points: int,
                  cache_hits: int) -> tuple[dict, str]:
    """The per-layer metrics of one traced pass, and a printable report."""
    self_s, calls, outside = fold(stats)
    hot = hot_totals(stats)
    spans = tracer.span_totals()
    mc = tracer.machine
    values: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_s[layer], "s")
        values[f"{layer}.calls"] = (calls[layer], "count")
    unattributed = wall - sum(self_s.values())
    values["unattributed_s"] = (unattributed, "s")
    repro_calls = sum(calls.values())
    values["repro.calls"] = (repro_calls, "count")
    accesses = mc["loads"] + mc["stores"]
    miss_path_s = self_s["coherence"] + self_s["noc"] + self_s["l2_mem"]
    accept = _ratio(mc["approx_ok"], mc["would_miss"])
    full_sims = spans.get("Machine.run", (0, 0.0))[0]
    reports = tracer.batch_reports.values()

    def span_s(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    values.update({
        "engine.events": (mc["events"], "count"),
        "engine.ns_per_event": (1e9 * _ratio(self_s["engine"], mc["events"]),
                                "ns"),
        "l1.accesses": (accesses, "count"),
        "l1.hit_ratio": (1.0 - _ratio(mc["misses"], accesses), "ratio"),
        "l1.ns_per_access": (1e9 * _ratio(self_s["l1"], accesses), "ns"),
        "coherence.messages": (mc["messages"], "count"),
        "noc.flit_hops": (mc["flit_hops"], "count"),
        "miss_path.ns_per_message": (
            1e9 * _ratio(miss_path_s, mc["messages"]), "ns"),
        "scribe.checks": (hot["scribe_check"][0], "count"),
        "scribe.accept_ratio": (accept, "ratio"),
        "compiled.records": (hot["program_record"][0], "count"),
        "compiled.cache_hits": (cache_hits, "count"),
        "compiled.deopts": (hot["core_deopt"][0], "count"),
        "compiled.replay_s": (hot["replay_to_completion"][1], "s"),
        "workloads.prepare_s": (span_s("Workload.prepare"), "s"),
        "workloads.collect_s": (span_s("Workload.collect"), "s"),
        "checkpoint.captures": (
            spans.get("MachineCheckpoint.capture", (0, 0.0))[0], "count"),
        "checkpoint.capture_s": (span_s("MachineCheckpoint.capture"), "s"),
        "batch.full_sims": (full_sims, "count"),
        "batch.shared": (sum(r.shared for r in reports), "count"),
        "batch.forked": (sum(r.forked for r in reports), "count"),
        "batch.sims_per_point": (_ratio(full_sims, points), "ratio"),
        "store.puts": (spans.get("ResultStore.put", (0, 0.0))[0], "count"),
        "store.put_s": (span_s("ResultStore.put"), "s"),
        "energy.report_s": (span_s("EnergyAccountant.report"), "s"),
        "verify.check_s": (span_s("Machine.check_coherence_invariants"), "s"),
        "calls_per_kcycle": (_ratio(repro_calls, cycles / 1000.0),
                             "calls/kcycle"),
        "trace.overhead": (_ratio(wall, untraced_wall), "ratio"),
    })
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    return metrics, _report(self_s, calls, outside, unattributed, wall,
                            untraced_wall, hot, spans, tracer)


def _report(self_s, calls, outside, unattributed, wall, untraced_wall,
            hot, spans, tracer) -> str:
    lines = [f"traced pass {wall:.3f} s (untraced {untraced_wall:.3f} s)",
             f"{'layer':<12} {'self_s':>9} {'share':>7} {'calls':>12}"]
    for layer in sorted(LAYERS, key=lambda k: -self_s[k]):
        lines.append(f"{layer:<12} {self_s[layer]:9.3f} "
                     f"{100 * self_s[layer] / wall:6.1f}% {calls[layer]:12d}")
    lines.append(f"{'unattributed':<12} {unattributed:9.3f} "
                 f"{100 * unattributed / wall:6.1f}%  (frames outside "
                 f"repro: {outside:.3f} s)")
    lines.append(f"attribution check: layers cover "
                 f"{100 * (wall - unattributed) / wall:.1f}% of the traced "
                 f"wall time")
    lines.append(f"{'span':<36} {'calls':>10} {'total_s':>9}")
    for name, (n, secs) in sorted(spans.items()):
        lines.append(f"{name:<36} {n:10d} {secs:9.3f}")
    for name, (n, secs) in hot.items():
        lines.append(f"{name + ' (profile)':<36} {n:10d} {secs:9.3f}")
    if tracer.batch_reports:
        lines.append(f"{'batch group':<18} {'reps':>4} {'shared':>6} "
                     f"{'verif':>5} {'serial':>6} {'forked':>6} "
                     f"{'captures':>8} {'capture_s':>9} {'group_s':>8} "
                     f"{'capture%':>8}")
        for app, rpt in tracer.batch_reports.items():
            totals = tracer.span_totals(app)
            n_cap, cap_s = totals.get("MachineCheckpoint.capture", (0, 0.0))
            group_s = totals.get("batch_fan_out", (0, 0.0))[1]
            lines.append(
                f"{app:<18} {rpt.reps:4d} {rpt.shared:6d} {rpt.verified:5d} "
                f"{rpt.serial:6d} {rpt.forked:6d} {n_cap:8d} {cap_s:9.3f} "
                f"{group_s:8.3f} {100 * _ratio(cap_s, group_s):7.1f}%")
    return "\n".join(lines)
