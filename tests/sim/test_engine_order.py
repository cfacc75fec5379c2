"""The bucket engine runs events in exactly the order of a
``(cycle, seq)`` heap.

:class:`HeapEngine` below is the reference: one binary heap of
``(cycle, seq, callback)`` tuples, where ``seq`` is a global counter, so
same-cycle events fire in scheduling order.  Random schedules — event
trees whose callbacks schedule more events (zero-delay ones included)
and may raise, driven by ``run``/``run_until`` steps with cycle and
event budgets — must give the same trace, clock, counters, queue length
and timeout messages on both engines.
"""
from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import (
    CheckpointUnsupported, Engine, SimulationError, SimulationTimeout,
)


class HeapEngine:
    """Reference scheduler: a heap of ``(cycle, seq, callback)``."""

    def __init__(self) -> None:
        self._queue: list = []
        self._seq = 0
        self.now = 0
        self.events_executed = 0
        self._running = False

    def schedule(self, delay, callback) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback))

    def pending(self) -> int:
        return len(self._queue)

    def _timeout_message(self, what: str) -> str:
        return (
            f"{what} at cycle {self.now} "
            f"({self.events_executed} events executed, "
            f"{len(self._queue)} events still pending); "
            "likely deadlock or unfinished thread program"
        )

    def run(self, max_cycles=500_000_000, max_events=None) -> int:
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        queue = self._queue
        executed = self.events_executed
        try:
            while queue:
                cycle = queue[0][0]
                if cycle > max_cycles:
                    self.events_executed = executed
                    raise SimulationTimeout(self._timeout_message(
                        f"simulation exceeded {max_cycles} cycles"))
                self.now = cycle
                while queue and queue[0][0] == cycle:
                    executed += 1
                    if max_events is not None and executed > max_events:
                        self.events_executed = executed
                        raise SimulationTimeout(self._timeout_message(
                            f"simulation exceeded {max_events} events"))
                    heapq.heappop(queue)[2]()
        finally:
            self.events_executed = executed
            self._running = False
        return self.now

    def run_until(self, cycle, max_events=None, *, advance_clock=True) -> int:
        if self._running:
            raise SimulationError("Engine.run_until() is not re-entrant")
        self._running = True
        executed = self.events_executed
        budget = None if max_events is None else executed + max_events
        queue = self._queue
        try:
            while queue and queue[0][0] <= cycle:
                evc = queue[0][0]
                self.now = evc
                while queue and queue[0][0] == evc:
                    executed += 1
                    if budget is not None and executed > budget:
                        self.events_executed = executed
                        raise SimulationTimeout(self._timeout_message(
                            f"run_until exceeded {max_events} events"))
                    heapq.heappop(queue)[2]()
            if advance_clock and self.now < cycle:
                self.now = cycle
        finally:
            self.events_executed = executed
            self._running = False
        return self.now


class Boom(Exception):
    """Raised by a callback on purpose."""


#: an event: (delay, raises, children scheduled when it fires)
events = st.recursive(
    st.tuples(st.integers(0, 4), st.booleans(), st.just(())),
    lambda kids: st.tuples(st.integers(0, 4), st.booleans(),
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=12,
)

steps = st.one_of(
    st.tuples(st.just("schedule"), st.lists(events, max_size=4)),
    st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 30)),
              st.one_of(st.none(), st.integers(0, 40))),
    st.tuples(st.just("run_until"), st.integers(0, 30),
              st.one_of(st.none(), st.integers(0, 20)), st.booleans()),
)


def _drive(engine, program) -> list:
    """Apply ``program`` to ``engine``; everything observable, in order."""
    trace: list = []
    labels = iter(range(10**9))

    def add(event) -> None:
        delay, raises, kids = event
        label = next(labels)

        def fire() -> None:
            trace.append(("fire", label, engine.now, engine.pending()))
            for kid in kids:
                add(kid)
            if raises:
                raise Boom(label)

        engine.schedule(delay, fire)

    for step in program:
        try:
            if step[0] == "schedule":
                for event in step[1]:
                    add(event)
                continue
            if step[0] == "run":
                _, max_cycles, max_events = step
                kwargs = {"max_events": max_events}
                if max_cycles is not None:
                    kwargs["max_cycles"] = max_cycles
                trace.append(("ret", engine.run(**kwargs)))
            else:
                _, cycle, max_events, advance = step
                trace.append(("ret", engine.run_until(
                    cycle, max_events, advance_clock=advance)))
        except (Boom, SimulationTimeout) as exc:
            trace.append(("raised", type(exc).__name__, str(exc)))
        trace.append(("state", engine.now, engine.events_executed,
                      engine.pending()))
    return trace


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=8))
def test_bucket_engine_matches_heap_order(program):
    assert _drive(Engine(), program) == _drive(HeapEngine(), program)


def test_zero_delay_chain_and_timeouts_are_exercised():
    """A fixed program hitting each case the property covers."""
    leaf = (0, False, ())
    program = [
        ("schedule", [(2, False, (leaf, leaf)), (2, True, (leaf,)),
                      (5, False, ((0, False, (leaf,)),))]),
        ("run_until", 2, None, False),
        ("run", None, 5),
        ("run_until", 3, 1, True),
        ("run", 4, None),
        ("run", None, None),
    ]
    trace = _drive(Engine(), program)
    assert trace == _drive(HeapEngine(), program)
    raised = [t for t in trace if t[0] == "raised"]
    assert [t[1] for t in raised] == ["Boom", "SimulationTimeout",
                                      "SimulationTimeout"]
    assert "simulation exceeded 5 events" in raised[1][2]
    assert "simulation exceeded 4 cycles" in raised[2][2]


class TestTags:
    def test_snapshot_restore_round_trip(self):
        eng = Engine()
        fired: list = []
        cbs = {name: (lambda name=name: fired.append(name))
               for name in "abcd"}
        eng.schedule_tagged(3, cbs["a"], ("a",))
        eng.schedule_tagged(1, cbs["b"], ("b",))
        eng.schedule_tagged(3, cbs["c"], ("c",))
        # tagged once, every later schedule of the callback is tagged
        eng.schedule(1, cbs["a"])
        eng.tag(cbs["d"], ("d",))
        eng.schedule(0, cbs["d"])
        assert eng.all_tagged()
        blob = eng.snapshot()
        assert [ev[2] for ev in blob["events"]] == [
            ("d",), ("b",), ("a",), ("a",), ("c",)]

        eng2 = Engine()
        eng2.restore(blob, lambda tag: (lambda: fired.append(tag[0])))
        assert eng2.all_tagged()
        assert eng2.snapshot() == blob
        eng2.run()
        restored_order = list(fired)
        fired.clear()
        eng.run()
        assert fired == restored_order == ["d", "b", "a", "a", "c"]
        assert eng2.now == eng.now == 3
        assert eng2.events_executed == eng.events_executed == 5

    def test_untagged_and_unhashable_callbacks_block_snapshot(self):
        class Unhashable:
            __hash__ = None

            def __call__(self) -> None:
                pass

        for callback in (lambda: None, Unhashable()):
            eng = Engine()
            eng.schedule_tagged(1, lambda: None, ("t",))
            eng.schedule(2, callback)
            assert not eng.all_tagged()
            with pytest.raises(CheckpointUnsupported, match="cycle 2"):
                eng.snapshot()

    def test_next_cycle(self):
        eng = Engine()
        assert eng.next_cycle() is None
        eng.schedule(7, lambda: None)
        eng.schedule(3, lambda: None)
        assert eng.next_cycle() == 3
        eng.run_until(3)
        assert eng.next_cycle() == 7
