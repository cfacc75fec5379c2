"""In-order core model.

A core drives one thread program against its private L1.  The program
is a generator of ISA ops, executed through a ``send``/``next``
round-trip and ``type(op)`` dispatch per op.  ``Machine.add_thread``
hands the core either the generator itself or a zero-argument factory
that builds it; only a factory-built program can be checkpointed,
because :meth:`Core.restore` rebuilds the generator from the factory
and the run's :class:`~repro.isa.compiled.ProgramRecorder` value log.

Hits and compute are executed in batches of up to ``core_quantum``
L1-hit-equivalents without touching the event queue (the dominant
simulator-performance optimization — see the HPC guide's "measure, then
remove the bottleneck"); any miss, sync op, or exhausted quantum yields
back to the scheduler.  The resulting event-order skew is bounded by the
quantum and is configurable down to 1 for strictly ordered runs.

The core itself runs as one persistent generator, :meth:`Core._run`:
the engine schedules its ``__next__`` (``Core._step``), a miss
completes through its ``send`` (``Core._resume``), and a sync wakeup
through ``Core._wake``.  Its locals — the op classes, the hit latency,
the L1's bound ``access``, the counter dict — are bound once per run,
not once per step.  Per memory op the loop makes exactly one call into
the L1, :meth:`~repro.cache.l1.L1Controller.access`; the
approximate-region lookup runs only while an ``approx_begin`` region
is active.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Generator, Iterator

from repro.cache.l1 import L1Controller
from repro.common.stats import StatGroup
from repro.common.types import AccessType
from repro.isa.approx import ApproxManager
from repro.isa import instructions as isa
from repro.isa.compiled import (
    ProgramRecorder, replay_to_completion, resync_generator,
)
from repro.sim.engine import CheckpointUnsupported, Engine

__all__ = ["Core", "ThreadProgram"]

#: A thread program yields ISA ops and receives load values via ``send``.
ThreadProgram = Generator["isa.Op", "int | None", None]

_PRAGMA_COST = 1  # cycles charged for setaprx/endaprx/region pragmas

_LOAD = AccessType.LOAD
_STORE = AccessType.STORE
_SCRIBBLE = AccessType.SCRIBBLE


class Core:
    """One in-order core executing one thread program."""

    def __init__(
        self,
        cid: int,
        engine: Engine,
        l1: L1Controller,
        program: "Iterator | Callable[[], Iterator]",
        stats: StatGroup,
        quantum: int = 8,
        record: bool = False,
    ) -> None:
        self.cid = cid
        self.engine = engine
        self.l1 = l1
        self.stats = stats
        self._hit_latency = l1.cfg.l1.hit_latency
        self.quantum_cycles = max(1, quantum) * self._hit_latency
        self.approx = ApproxManager()
        self.done = False
        self.finish_cycle: int | None = None
        self._pending_send: int | None = None
        self._started = False
        self._blocked_since = 0
        #: description of the op this core is currently blocked on
        #: (None while running) — read by the watchdog's diagnostic dump
        self.blocked_op: str | None = None
        # hot counters are bumped through the live counter dict (one item
        # access each) rather than StatGroup's attribute protocol; both
        # spell the same underlying values
        self._c = stats.counters(
            "mem_ops", "compute_cycles", "barrier_waits", "quantum_yields",
            "stall_cycles",
        )
        # restorable identity of this core's self-reschedule events
        # (start and quantum yields) — see repro.sim.state
        self._step_tag = ("core_step", cid)
        self._factory: Callable[[], Iterator] | None = None
        if callable(program):
            self._factory = program
            program = program()
        self.program: Iterator | None = program
        #: the value log checkpoints replay from (``record`` and a
        #: factory-built program only — see repro.isa.compiled)
        self._recorder: ProgramRecorder | None = (
            ProgramRecorder() if record and self._factory is not None
            else None
        )
        self._new_runner()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the core's first step at cycle 0."""
        if self._started:
            raise RuntimeError(f"core {self.cid} already started")
        self._started = True
        self.engine.schedule(0, self._step)

    def _new_runner(self) -> None:
        """Build the generator that executes this core (:meth:`_run`)
        and bind its entry points: ``_step`` (the scheduled, tagged
        event), ``_resume`` (miss completion, carrying the load value)
        and ``_wake`` (sync wakeup, an untagged event)."""
        runner = self._run()
        self._step = runner.__next__
        self._resume = runner.send
        self._wake = partial(runner.send, None)
        self.engine.tag(self._step, self._step_tag)

    # inert: never called; ``perfbench/`` binds it (ROADMAP item 2)
    def _deoptimize(self) -> None:
        pass

    def _finish(self, elapsed: int) -> None:
        self.done = True
        self.finish_cycle = self.engine.now + elapsed
        self.stats.finish_cycle = self.finish_cycle

    # ------------------------------------------------------------------
    # checkpoint layer (see repro.sim.state)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Restorable execution state, capturable at safe points only
        (no outstanding load — implied by empty MSHRs).

        Two shapes round-trip, both carrying the recorder's value log:
        a running core (``recorded``; the restored run resynchronizes a
        fresh generator through the log) and a finished one (``done``;
        the restore replays the log to redo the program's side
        effects).  A core without a recording raises
        :class:`CheckpointUnsupported` — its continuation lives in an
        opaque generator frame."""
        rec = self._recorder
        if rec is None:
            raise CheckpointUnsupported(
                f"core {self.cid} has no program recording to replay"
            )
        return {
            "mode": "done" if self.done else "recorded",
            "finish_cycle": self.finish_cycle,
            "sends": list(rec.sends),
            "started": self._started,
            "pending_send": self._pending_send,
            "blocked_since": self._blocked_since,
            "blocked_op": self.blocked_op,
            "approx": self.approx.snapshot(),
        }

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state.  The core must come from the
        same deterministic workload build: its program factory supplies
        the generator the value log replays into."""
        if self._factory is None:
            raise CheckpointUnsupported(
                f"core {self.cid} has no program factory to restore into"
            )
        mode = blob["mode"]
        if mode not in ("done", "recorded"):
            raise ValueError(f"unknown core snapshot mode {mode!r}")
        self._started = blob["started"]
        self._pending_send = blob["pending_send"]
        self._blocked_since = blob["blocked_since"]
        self.blocked_op = blob["blocked_op"]
        self.approx.restore(blob["approx"])
        self._recorder = ProgramRecorder(blob["sends"])
        self.done = mode == "done"
        self.finish_cycle = blob["finish_cycle"]
        if self.done:
            # the interrupted run executed the program's side effects
            # into *its* workload instance; redo them into this one
            self.program = None
            replay_to_completion(self._factory, blob["sends"])
        else:
            self.program = resync_generator(self._factory, blob["sends"])
        self._new_runner()

    # ------------------------------------------------------------------
    def _run(self) -> Generator[None, "int | None", None]:
        """The core's execution loop.

        Each resumption runs ops until a blocking op or the quantum is
        exhausted, then suspends at a ``yield``: a miss waits for
        ``_resume(value)``, a sync op for ``_wake()``, an exhausted
        quantum for its scheduled ``_step()``.  The generator is the
        core's whole execution, so its locals are bound once per run;
        ``_pending_send``, ``_blocked_since`` and ``blocked_op`` are
        written where a checkpoint or the watchdog reads them.
        """
        if self.done:
            while True:
                yield
        budget = self.quantum_cycles
        hit_latency = self._hit_latency
        st = self._c
        engine = self.engine
        l1 = self.l1
        access = l1.access
        approx = self.approx
        resume = self._resume
        wake = self._wake
        cid = self.cid
        program = self.program
        fetch = program.__next__
        send = getattr(program, "send", None)
        sends = None if self._recorder is None else self._recorder.sends
        Load, Store, Scribble, Compute = (isa.Load, isa.Store, isa.Scribble,
                                          isa.Compute)
        # a restored core resumes with the value its checkpoint owed the
        # program, and from the sync op it was blocked on
        value, self._pending_send = self._pending_send, None
        if self.blocked_op is not None:
            st["stall_cycles"] += engine.now - self._blocked_since
            self.blocked_op = None

        while True:
            elapsed = 0
            while elapsed < budget:
                if sends is not None:
                    sends.append(value)
                try:
                    if value is None:
                        op = fetch()
                    else:
                        op = send(value)
                        value = None
                except StopIteration:
                    self._finish(elapsed)
                    while True:
                        yield

                cls = type(op)
                if cls is Load:
                    st["mem_ops"] += 1
                    hit, val = access(_LOAD, op.addr, None, resume)
                    if hit:
                        elapsed += hit_latency
                        value = val
                        continue
                    self._blocked_since = since = engine.now
                    self.blocked_op = f"LOAD {op.addr:#x}"
                    value = yield
                    st["stall_cycles"] += engine.now - since
                    self.blocked_op = None
                    elapsed = 0
                    continue
                if cls is Store or cls is Scribble:
                    st["mem_ops"] += 1
                    atype = _SCRIBBLE if (
                        cls is Scribble
                        or (approx.enabled and approx.is_approx(op.addr))
                    ) else _STORE
                    hit, _ = access(atype, op.addr, op.value, resume)
                    if hit:
                        elapsed += hit_latency
                        continue
                    self._blocked_since = since = engine.now
                    self.blocked_op = (
                        f"{atype.value.upper()} {op.addr:#x} = {op.value:#x}"
                    )
                    yield  # stores produce no value
                    st["stall_cycles"] += engine.now - since
                    self.blocked_op = None
                    elapsed = 0
                    continue
                if cls is Compute:
                    st["compute_cycles"] += op.cycles
                    elapsed += op.cycles
                    continue
                if cls is isa.BarrierWait or cls is isa.Acquire:
                    self._blocked_since = since = engine.now
                    if cls is isa.BarrierWait:
                        self.blocked_op = "BARRIER_WAIT"
                        op.barrier.arrive(wake, cid)
                        st["barrier_waits"] += 1
                    else:
                        self.blocked_op = "ACQUIRE"
                        op.lock.acquire(cid, wake)
                    yield
                    st["stall_cycles"] += engine.now - since
                    self.blocked_op = None
                    elapsed = 0
                    continue
                if cls is isa.Release:
                    op.lock.release(cid)
                    elapsed += _PRAGMA_COST
                    continue
                if cls is isa.SetAprx:
                    l1.set_approx(op.d_distance)
                    elapsed += _PRAGMA_COST
                    continue
                if cls is isa.EndAprx:
                    l1.end_approx()
                    elapsed += _PRAGMA_COST
                    continue
                if cls is isa.ApproxBegin:
                    approx.begin(op.ranges)
                    elapsed += _PRAGMA_COST
                    continue
                if cls is isa.ApproxEnd:
                    approx.end(op.ranges)
                    elapsed += _PRAGMA_COST
                    continue
                if cls is isa.FlushApprox:
                    l1.flush_approx()
                    elapsed += _PRAGMA_COST
                    continue
                raise TypeError(f"thread program yielded {op!r}")

            # quantum exhausted: let other events interleave
            st["quantum_yields"] += 1
            engine.schedule(elapsed, self._step)
            self._pending_send = value
            yield
            self._pending_send = None
