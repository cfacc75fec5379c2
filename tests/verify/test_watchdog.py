"""Progress watchdog: deadlock detection and the diagnostic dump."""
from dataclasses import replace

import pytest

from repro.common.config import VerifyConfig, small_config
from repro.isa.instructions import Acquire, Compute, Load, Store
from repro.sim.engine import SimulationTimeout
from repro.sim.machine import Machine
from repro.verify.watchdog import DeadlockError, diagnostic_dump

BLK = 0x4000


def _machine(num_cores=2, *, interval=500, stalls=2):
    cfg = small_config(num_cores=num_cores)
    cfg = replace(
        cfg,
        verify=VerifyConfig(watchdog_interval=interval,
                            watchdog_stalls=stalls),
    )
    return Machine(cfg)


def test_clean_run_unaffected():
    m = _machine(interval=100)

    def prog():
        yield Store(BLK, 7)
        yield Compute(600)   # several watchdog firings while running
        yield Load(BLK)

    m.add_thread(0, prog())
    m.run()
    m.check_quiescent()


def test_wedged_transaction_dump_names_the_culprits():
    """Swallow the FWD_GETS to the owner: the requestor's transaction
    wedges, and the DeadlockError dump must name the blocked core, its
    stuck MSHR entry, and the busy directory entry."""
    m = _machine()

    def owner():
        yield Load(BLK)      # becomes E owner, then finishes

    def requestor():
        yield Compute(600)   # let the owner finish first
        yield Load(BLK)      # GETS -> FWD_GETS to the (dead) owner

    m.add_thread(1, owner())
    m.add_thread(0, requestor())

    def swallow_l1_messages_to_node1():
        # keep the directory handler: the node may also host an agent
        _l1, directory = m.network._endpoints[1]
        m.network._endpoints[1] = (lambda msg: None, directory)

    m.engine.schedule(400, swallow_l1_messages_to_node1)
    with pytest.raises(DeadlockError) as exc:
        m.run()
    dump = str(exc.value)
    assert "no op retired" in dump
    assert f"core 0: BLOCKED on LOAD {BLK:#x}" in dump
    assert "MSHR" in dump and f"{BLK:#x}" in dump
    assert "busy on" in dump and "waiting_chain=True" in dump


def test_drained_queue_deadlock_is_reported():
    """A core blocked on a never-released lock leaves the event queue
    empty except for the watchdog, which must still fire and report."""
    m = _machine()
    lock = m.lock()

    def holder():
        yield Acquire(lock)   # acquires and never releases

    def waiter():
        yield Compute(50)
        yield Acquire(lock)   # blocks forever

    m.add_thread(0, holder())
    m.add_thread(1, waiter())
    with pytest.raises(DeadlockError) as exc:
        m.run()
    assert "core 1: BLOCKED on ACQUIRE" in str(exc.value)


def test_dump_reports_runnable_and_done_cores():
    m = _machine()

    def prog():
        yield Store(BLK, 1)

    m.add_thread(0, prog())
    m.run()
    dump = diagnostic_dump(m)
    assert "core 0: done @ cycle" in dump
    assert "diagnostic dump @ cycle" in dump


def test_timeout_message_carries_core_status_and_dump():
    m = _machine()

    def prog():
        for _ in range(1000):
            yield Compute(100)

    m.add_thread(0, prog())
    with pytest.raises(SimulationTimeout) as exc:
        m.run(max_cycles=300)
    msg = str(exc.value)
    assert "pending" in msg
    assert "core status:" in msg
    assert "core 0: UNFINISHED" in msg
    assert "diagnostic dump" in msg


def test_wire_dump_lists_in_flight_messages_in_send_order():
    """The dump's ``noc in flight`` lines, pinned mid-run: messages are
    listed in send order, which is not delivery order (messages sent
    after the GETS to the far node 7 arrive before it)."""
    from tests.conftest import build_machine

    m = build_machine(4, enabled=False)

    def prog(cid):
        yield Load(BLK + 4 * cid)
        yield Load(BLK + 64 * (1 + cid))
        yield Compute(40 if cid else 60)
        yield Store(BLK, 7 + cid)
        yield Load(BLK + 64 * ((2 + cid) % 4 + 1))

    for cid in range(4):
        m.add_thread(cid, prog(cid))
    wire = {}

    def grab(cycle):
        wire[cycle] = [line for line in diagnostic_dump(m).splitlines()
                       if line.startswith("noc")]

    for cycle in (233, 267):
        m.engine.schedule(cycle, lambda cycle=cycle: grab(cycle))
    m.run()
    assert wire[233] == [
        "noc in flight: Message(INV 0x4000 0->0)",
        "noc in flight: Message(INV 0x4000 0->2)",
        "noc in flight: Message(INV 0x4000 0->3)",
    ]
    # CHAIN_ACK 0x4100 3->0, sent after the GETS, has already arrived
    assert wire[267] == [
        "noc in flight: Message(GETS 0x40c0 0->7, req=0)",
        "noc in flight: Message(FWD_DATA 0x4100 3->1)",
        "noc in flight: Message(FWD_DATA 0x4000 0->2)",
        "noc in flight: Message(GETX 0x4000 3->0, req=3)",
    ]
