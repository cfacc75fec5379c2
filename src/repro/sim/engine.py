"""Deterministic discrete-event simulation kernel.

Pending events live in one FIFO list per cycle (``_buckets``) plus a
binary heap of the distinct pending cycles (``_cycles``).  An event
scheduled for cycle ``c`` is appended to ``c``'s list, so events of one
cycle fire in the order they were scheduled — including zero-delay
events a callback adds to the cycle being dispatched — which makes
every run bit-reproducible.  Scheduling costs a dict probe and a list
append; only the first event of a new cycle touches the heap.

The engine knows nothing about caches or cores — components schedule
callbacks.  Long runs are bounded by ``max_cycles`` (deadlock insurance);
exceeding it raises :class:`SimulationTimeout` rather than spinning.
"""
from __future__ import annotations

import heapq
from typing import Callable, Iterator

__all__ = ["Engine", "SimulationTimeout", "SimulationError",
           "CheckpointUnsupported"]


class SimulationError(RuntimeError):
    """Generic fatal simulator condition.

    When the failing machine had a checkpoint recorder attached,
    ``Machine.run`` sets :attr:`checkpoint` to the most recent
    :class:`~repro.sim.state.MachineCheckpoint` before re-raising, so
    the failure window can be replayed from just before it."""

    checkpoint = None


class SimulationTimeout(SimulationError):
    """The event queue outlived ``max_cycles`` — almost always a protocol
    deadlock or a thread program that never finishes."""


class CheckpointUnsupported(SimulationError):
    """The machine is not at a state the checkpoint layer can capture —
    e.g. the event queue holds an untagged closure (an in-flight
    coherence transaction's continuation).  Callers treat this as "not a
    safe point" and try again later, never as a fatal error."""


class Engine:
    """Minimal event-driven scheduler with a global cycle clock."""

    __slots__ = ("_buckets", "_cycles", "_tags", "_live", "now",
                 "events_executed", "_running", "timeout_hook")

    def __init__(self) -> None:
        #: cycle -> callbacks due then, in scheduling order
        self._buckets: dict[int, list[Callable[[], None]]] = {}
        #: heap of the keys of ``_buckets``
        self._cycles: list[int] = []
        #: callback -> restorable identity (see :meth:`tag`)
        self._tags: dict[Callable[[], None], tuple] = {}
        #: iterator over the bucket being dispatched (None between
        #: cycles): its events before the iterator's position have run
        self._live: Iterator[Callable[[], None]] | None = None
        self.now = 0
        self.events_executed = 0
        self._running = False
        #: optional context provider appended to timeout diagnostics —
        #: the machine installs one reporting per-core finish status
        self.timeout_hook: Callable[[], str] | None = None

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        cycle = self.now + delay
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [callback]
            heapq.heappush(self._cycles, cycle)
        else:
            bucket.append(callback)

    def schedule_at(self, cycle: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at an absolute cycle (>= now)."""
        if cycle < self.now:
            raise ValueError(
                f"cannot schedule at absolute cycle {cycle}: it is in the "
                f"past (current cycle is {self.now})"
            )
        self.schedule(cycle - self.now, callback)

    # -- tagged scheduling (checkpoint layer) -------------------------
    # A tag is a picklable identity for a callback, kept in a registry
    # beside the queue: snapshot() stores (cycle, position, tag) for each
    # queued event and restore() re-binds each tag to a fresh callback.
    # Only snapshot()/all_tagged() read the registry, so tagging costs
    # the dispatch loop nothing.

    def tag(self, callback: Callable[[], None], tag: tuple) -> None:
        """Give ``callback`` a restorable identity: every queued event
        of it (scheduled through any method) is then checkpointable."""
        self._tags[callback] = tag

    def schedule_tagged(self, delay: int, callback: Callable[[], None],
                        tag: tuple) -> None:
        """:meth:`tag`, then :meth:`schedule`."""
        self._tags[callback] = tag
        self.schedule(delay, callback)

    def _tag_of(self, callback: Callable[[], None]) -> tuple | None:
        try:
            return self._tags.get(callback)
        except TypeError:  # an unhashable callable was never tagged
            return None

    def _ran(self) -> int:
        """Events of the bucket being dispatched that have already run
        (or are running)."""
        live = self._live
        if live is None:
            return 0
        return len(self._buckets[self._cycles[0]]) - live.__length_hint__()

    def _events(self) -> Iterator[tuple[int, Callable[[], None]]]:
        """``(cycle, callback)`` of every pending event, in run order (a
        callback asking sees neither itself nor the events run before
        it)."""
        skip = self._ran()
        for cycle in sorted(self._buckets):
            for callback in self._buckets[cycle][skip:]:
                yield cycle, callback
            skip = 0

    def queued(self) -> Iterator[Callable[[], None]]:
        """Every pending callback, in the order they will run."""
        return (callback for _cycle, callback in self._events())

    def all_tagged(self) -> bool:
        """True when every queued event carries a restorable tag."""
        return all(self._tag_of(cb) is not None for cb in self.queued())

    def snapshot(self) -> dict:
        """Restorable queue state: clock, event count, tagged events.

        Raises :class:`CheckpointUnsupported` if any queued event is an
        anonymous closure (untagged) — those are in-flight transaction
        continuations the checkpoint layer cannot rebuild.  Each event is
        stored as ``(cycle, position, tag)``, ``position`` numbering the
        queue in run order.
        """
        events = []
        for cycle, callback in self._events():
            tag = self._tag_of(callback)
            if tag is None:
                raise CheckpointUnsupported(
                    f"untagged event at cycle {cycle} (position "
                    f"{len(events) + 1}): not a checkpointable safe point"
                )
            events.append((cycle, len(events) + 1, tag))
        return {
            "now": self.now,
            "seq": len(events),
            "events_executed": self.events_executed,
            "events": events,
        }

    def restore(self, blob: dict, resolve: Callable[[tuple], Callable]) -> None:
        """Rebuild the queue from :meth:`snapshot` output.

        ``resolve(tag)`` maps each event tag back to a live callback
        bound to the restoring machine.  Stale events — recorded cycle
        before the snapshot clock — are rejected deterministically with
        ``ValueError`` (the same contract as :meth:`schedule_at`), so a
        corrupted or hand-edited checkpoint fails loudly instead of
        replaying an event into the past.
        """
        now = blob["now"]
        buckets: dict[int, list[Callable[[], None]]] = {}
        tags: dict[Callable[[], None], tuple] = {}
        for cycle, _pos, tag in sorted(blob["events"],
                                       key=lambda ev: ev[:2]):
            if cycle < now:
                raise ValueError(
                    f"cannot restore event {tag!r} at absolute cycle "
                    f"{cycle}: it is in the past (checkpoint clock is {now})"
                )
            callback = resolve(tag)
            tags[callback] = tag
            buckets.setdefault(cycle, []).append(callback)
        self.now = now
        self.events_executed = blob["events_executed"]
        self._buckets = buckets
        self._cycles = list(buckets)
        heapq.heapify(self._cycles)
        self._tags.update(tags)

    def pending(self) -> int:
        """Number of events still queued."""
        return sum(map(len, self._buckets.values())) - self._ran()

    def next_cycle(self) -> int | None:
        """Cycle of the earliest queued event (None when idle)."""
        return self._cycles[0] if self._cycles else None

    # -- dispatch --------------------------------------------------------
    def run(self, max_cycles: int = 500_000_000, max_events: int | None = None) -> int:
        """Drain the queue; returns the final cycle count.

        Re-entrant calls are rejected — a callback must schedule follow-up
        events, never call :meth:`run`.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._dispatch(None, max_cycles, max_events,
                       f"simulation exceeded {max_events} events")
        return self.now

    def run_until(self, cycle: int, max_events: int | None = None, *,
                  advance_clock: bool = True) -> int:
        """Execute events up to and including ``cycle``; later events stay
        queued.  Useful for stepping tests through protocol epochs.

        Dispatches exactly as :meth:`run` does and shares its
        diagnostics: ``max_events`` bounds the number of events executed
        by *this call*, raising :class:`SimulationTimeout` through
        :meth:`_timeout_message` (including any installed
        ``timeout_hook`` context) when exceeded — insurance against a
        zero-delay self-rescheduling loop that would otherwise spin
        forever inside one cycle.

        ``advance_clock=False`` leaves ``now`` at the last executed
        event's cycle instead of forcing it to ``cycle`` — the checkpoint
        recorder steps the run this way so an interrupted run's final
        clock (and every checkpoint stamp) matches the uninterrupted
        run bit for bit.
        """
        if self._running:
            raise SimulationError("Engine.run_until() is not re-entrant")
        budget = (None if max_events is None
                  else self.events_executed + max_events)
        self._dispatch(cycle, None, budget,
                       f"run_until exceeded {max_events} events")
        if advance_clock and self.now < cycle:
            self.now = cycle
        return self.now

    def _dispatch(self, until: int | None, max_cycles: int | None,
                  budget: int | None, budget_what: str) -> None:
        """Run every queued cycle up to ``until`` (all of them when None),
        one cycle's bucket at a time.

        Raises :class:`SimulationTimeout` before a cycle past
        ``max_cycles`` and before the event that would make
        ``events_executed`` exceed ``budget``; that event stays queued.
        A callback that raises has been consumed, and the events after
        it stay queued.
        """
        self._running = True
        buckets = self._buckets
        cycles = self._cycles
        pop = heapq.heappop
        executed = self.events_executed
        it = None
        try:
            while cycles:
                cycle = cycles[0]
                if until is not None and cycle > until:
                    break
                if max_cycles is not None and cycle > max_cycles:
                    self.events_executed = executed
                    raise SimulationTimeout(self._timeout_message(
                        f"simulation exceeded {max_cycles} cycles"
                    ))
                self.now = cycle
                bucket = buckets[cycle]
                # iterating the live list also runs the zero-delay events
                # the callbacks append to it
                it = self._live = iter(bucket)
                if budget is None:
                    for cb in it:
                        cb()
                    executed += len(bucket)
                else:
                    for cb in it:
                        executed += 1
                        if executed > budget:
                            # the event just taken stays queued
                            self._consume(cycle, bucket,
                                          len(bucket) - it.__length_hint__()
                                          - 1)
                            it = self._live = None
                            self.events_executed = executed
                            raise SimulationTimeout(
                                self._timeout_message(budget_what))
                        cb()
                it = self._live = None
                del buckets[cycle]
                pop(cycles)
        except BaseException:
            if it is not None:
                # a callback raised: drop the events dispatched so far
                done = len(bucket) - it.__length_hint__()
                if budget is None:
                    executed += done
                self._live = None
                self._consume(cycle, bucket, done)
            raise
        finally:
            self.events_executed = executed
            self._running = False

    def _consume(self, cycle: int, bucket: list, done: int) -> None:
        """Drop the first ``done`` events of the (earliest) ``cycle``."""
        if done >= len(bucket):
            del self._buckets[cycle]
            heapq.heappop(self._cycles)
        else:
            del bucket[:done]

    def _timeout_message(self, what: str) -> str:
        """Timeout diagnostics: cycle, event and queue counts, plus
        whatever context the installed :attr:`timeout_hook` provides."""
        msg = (
            f"{what} at cycle {self.now} "
            f"({self.events_executed} events executed, "
            f"{self.pending()} events still pending); "
            "likely deadlock or unfinished thread program"
        )
        if self.timeout_hook is not None:
            try:
                msg += "\n" + self.timeout_hook()
            except Exception as exc:  # diagnostics must never mask the timeout
                msg += f"\n(timeout hook failed: {exc!r})"
        return msg
