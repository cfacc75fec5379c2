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

Per memory op the loop makes exactly one call into the L1,
:meth:`~repro.cache.l1.L1Controller.access`, with the hit latency and
the controller's bound method held in locals; the approximate-region
lookup runs only while an ``approx_begin`` region is active.
"""
from __future__ import annotations

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

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the core's first step at cycle 0."""
        if self._started:
            raise RuntimeError(f"core {self.cid} already started")
        self._started = True
        self.engine.schedule_tagged(0, self._step, self._step_tag)

    def _resume_with(self, value: int | None) -> None:
        """Continuation for miss completion / sync wakeup."""
        self._c["stall_cycles"] += self.engine.now - self._blocked_since
        self.blocked_op = None
        self._pending_send = value
        self._step()

    def _wake(self) -> None:
        self._resume_with(None)

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

    # ------------------------------------------------------------------
    def _step(self) -> None:
        """Run ops until a blocking op or the quantum is exhausted."""
        if self.done:
            return
        budget = self.quantum_cycles
        elapsed = 0
        hit_latency = self._hit_latency
        st = self._c
        engine = self.engine
        access = self.l1.access
        approx = self.approx

        program = self.program
        sends = None if self._recorder is None else self._recorder.sends
        while elapsed < budget:
            try:
                if self._pending_send is not None:
                    value, self._pending_send = self._pending_send, None
                    if sends is not None:
                        sends.append(value)
                    op = program.send(value)
                else:
                    if sends is not None:
                        sends.append(None)
                    op = next(program)
            except StopIteration:
                self._finish(elapsed)
                return

            cls = type(op)
            if cls is isa.Load:
                st["mem_ops"] += 1
                hit, val = access(_LOAD, op.addr, None, self._resume_with)
                if hit:
                    elapsed += hit_latency
                    self._pending_send = val
                    continue
                self._blocked_since = engine.now
                self.blocked_op = f"LOAD {op.addr:#x}"
                return
            if cls is isa.Store or cls is isa.Scribble:
                st["mem_ops"] += 1
                atype = _SCRIBBLE if (
                    cls is isa.Scribble
                    or (approx.enabled and approx.is_approx(op.addr))
                ) else _STORE
                hit, _ = access(atype, op.addr, op.value, self._resume_with)
                if hit:
                    elapsed += hit_latency
                    # stores produce no value; send(None) ~ next()
                    continue
                self._blocked_since = engine.now
                self.blocked_op = (
                    f"{atype.value.upper()} {op.addr:#x} = {op.value:#x}"
                )
                return
            if cls is isa.Compute:
                st["compute_cycles"] += op.cycles
                elapsed += op.cycles
                continue
            if cls is isa.BarrierWait:
                self._blocked_since = engine.now
                self.blocked_op = "BARRIER_WAIT"
                op.barrier.arrive(self._wake, self.cid)
                st["barrier_waits"] += 1
                return
            if cls is isa.Acquire:
                self._blocked_since = engine.now
                self.blocked_op = "ACQUIRE"
                op.lock.acquire(self.cid, self._wake)
                return
            if cls is isa.Release:
                op.lock.release(self.cid)
                elapsed += _PRAGMA_COST
                continue
            if cls is isa.SetAprx:
                self.l1.set_approx(op.d_distance)
                elapsed += _PRAGMA_COST
                continue
            if cls is isa.EndAprx:
                self.l1.end_approx()
                elapsed += _PRAGMA_COST
                continue
            if cls is isa.ApproxBegin:
                self.approx.begin(op.ranges)
                elapsed += _PRAGMA_COST
                continue
            if cls is isa.ApproxEnd:
                self.approx.end(op.ranges)
                elapsed += _PRAGMA_COST
                continue
            if cls is isa.FlushApprox:
                self.l1.flush_approx()
                elapsed += _PRAGMA_COST
                continue
            raise TypeError(f"thread program yielded {op!r}")

        # quantum exhausted: let other events interleave
        st["quantum_yields"] += 1
        engine.schedule_tagged(elapsed, self._step, self._step_tag)
