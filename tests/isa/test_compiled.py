"""Unit + property tests for program recording (repro.isa.compiled).

Covers the value log a core keeps while checkpointing, the value-driven
generator replays built on it, and the round-trip property checkpoints
rest on: recording is invisible to the simulation, and a machine
restored mid-run from a checkpoint — its generators rebuilt from the
log — finishes bit-identically to the uninterrupted run.
"""
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import small_config
from repro.core import core as core_mod
from repro.harness.experiment import run_workload
from repro.isa import instructions as isa
from repro.isa.compiled import (
    ProgramRecorder, replay_to_completion, resync_generator,
)
from repro.sim.machine import Machine
from repro.sim.state import CheckpointRecorder, machine_fingerprint
from repro.workloads.registry import PROGRAM_CACHE


class TestRecorder:
    def test_load_value_patched_in(self):
        """A core logs each value it sends; a load's value is the send
        that fetches the op after it."""
        m = Machine(small_config(num_cores=1))
        m.checkpoint_recorder = CheckpointRecorder(1000)

        def prog():
            v = yield isa.Load(0x40)
            yield isa.Store(0x44, v + 7)
        m.backing.write_block(0x40, [99] + [0] * 15)
        core = m.add_thread(0, prog)
        m.run()
        # fetch Load, fetch Store (sending the load's 99), end of program
        assert core._recorder.sends == [None, 99, None]


def _counting_recorders(monkeypatch) -> list:
    made = []

    class Counting(ProgramRecorder):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(core_mod, "ProgramRecorder", Counting)
    return made


def test_default_run_records_nothing(monkeypatch):
    """Without a checkpoint recorder a registry workload constructs no
    program recorder, and no run warms a program cache for the next."""
    made = _counting_recorders(monkeypatch)
    hits = PROGRAM_CACHE.hits
    for _ in range(2):
        run_workload("bad_dot_product", d_distance=4, num_threads=2,
                     n_points=64, max_value=7)
    assert made == []
    assert PROGRAM_CACHE.hits == hits


def test_checkpointing_run_records_every_thread(monkeypatch):
    made = _counting_recorders(monkeypatch)
    m = Machine(small_config(num_cores=2))
    m.checkpoint_recorder = CheckpointRecorder(64)
    for cid in range(2):
        m.add_thread(cid, lambda: (op for op in [isa.Compute(3)]))
    assert len(made) == 2


class TestValueDrivenReplay:
    """resync_generator / replay_to_completion: pure-Python replays fed
    with the recorded send log."""

    @staticmethod
    def _factory(out):
        def gen():
            a = yield isa.Load(0x40)
            out.append(("a", a))
            yield isa.Store(0x44, a + 1)
            b = yield isa.Load(0x44)
            out.append(("b", b))
        return gen

    # fetch Load, Store (after a=10), Load, then end (after b=11)
    _SENDS = [None, 10, None, 11]

    def test_replay_runs_side_effects_once(self):
        out = []
        replay_to_completion(self._factory(out), self._SENDS)
        assert out == [("a", 10), ("b", 11)]

    def test_resync_stops_mid_stream_awaiting_send(self):
        out = []
        gen = resync_generator(self._factory(out), self._SENDS[:3])
        assert out == [("a", 10)]       # prefix side effects ran
        with pytest.raises(StopIteration):
            gen.send(42)                 # deliver the load's value
        assert out[-1] == ("b", 42)

    def test_overlong_program_raises(self):
        def gen():
            yield isa.Load(0x40)
            yield isa.Load(0x44)
        with pytest.raises(RuntimeError, match="beyond its 1-op recording"):
            replay_to_completion(lambda: gen(), [None, 0])


# ---------------------------------------------------------------------
# the round-trip property
# ---------------------------------------------------------------------
_CFG = small_config(num_cores=2)

# a small strided address pool: hits, misses, evictions, cross-core
# sharing all occur within a few dozen ops
_ADDRS = st.integers(0, 63).map(lambda i: 0x1000 + i * 4)

_OPS = st.one_of(
    st.builds(isa.Load, _ADDRS),
    st.builds(isa.Store, _ADDRS, st.integers(0, 2**32 - 1)),
    st.builds(isa.Scribble, _ADDRS, st.integers(0, 2**32 - 1)),
    st.builds(isa.Compute, st.integers(1, 20)),
    st.builds(isa.SetAprx, st.integers(0, 16)),
    st.just(isa.EndAprx()),
    st.just(isa.FlushApprox()),
)


def _machine(build, period):
    """A machine with ``build(machine)`` bound, checkpointing every
    ``period`` cycles (``None``: no checkpoint recorder)."""
    machine = Machine(_CFG)
    if period is not None:
        machine.checkpoint_recorder = CheckpointRecorder(period)
    build(machine)
    return machine


def _state(machine):
    return (machine.stats.flatten(), machine_fingerprint(machine))


def _assert_round_trip(build, period):
    """Recording is invisible, and every kept checkpoint resumes to the
    uninterrupted run's final state."""
    plain = _machine(build, None)
    plain.run()
    recorded = _machine(build, period)
    end = recorded.run()
    assert _state(recorded) == _state(plain)
    for ckpt in recorded.checkpoint_recorder.checkpoints:
        fresh = _machine(build, period)
        ckpt.restore_into(fresh, verify=True)
        assert fresh.resume() == end
        assert _state(fresh) == _state(plain)


@settings(max_examples=30, deadline=None)
@given(streams=st.lists(st.lists(_OPS, max_size=40), min_size=2, max_size=2))
def test_random_streams_round_trip(streams):
    """Arbitrary op streams recorded while checkpointing match the
    plain interpreter, and resume from any checkpoint bit-identically."""
    def build(machine):
        for cid, stream in enumerate(streams):
            machine.add_thread(cid, lambda s=stream: (op for op in s))
    _assert_round_trip(build, period=16)


def test_round_trip_with_barriers_and_locks():
    """Sync objects restore by creation index and blocked cores wake on
    the restored machine exactly as on the recorded one."""
    def build(machine):
        barrier = machine.barrier(2)
        lock = machine.lock()

        def make(cid):
            def gen():
                yield isa.Store(0x40 + cid * 4, cid + 1)
                yield isa.BarrierWait(barrier)
                v = yield isa.Load(0x40 + (1 - cid) * 4)
                yield isa.Acquire(lock)
                acc = yield isa.Load(0x100)
                yield isa.Compute(40)
                yield isa.Store(0x100, acc + v)
                yield isa.Release(lock)
            return gen
        for cid in range(2):
            machine.add_thread(cid, make(cid))

    probe = _machine(build, 8)
    probe.run()
    assert probe.stats.flatten()["core.c0.barrier_waits"] == 1
    assert len(probe.checkpoint_recorder.checkpoints) >= 2
    _assert_round_trip(build, period=8)
