"""Unit tests for NoC message transport and traffic accounting."""
import pytest

from repro.common.config import NocConfig
from repro.common.types import MessageClass, MessageType
from repro.coherence.messages import Message
from repro.noc.network import Network
from repro.sim.engine import Engine


def _net(cols=2, rows=2):
    engine = Engine()
    net = Network(NocConfig(mesh_cols=cols, mesh_rows=rows), engine,
                  block_bytes=64)
    return engine, net


class TestDelivery:
    def test_message_delivered_with_latency(self):
        engine, net = _net()
        got = []
        net.register(1, lambda m: got.append((engine.now, m)))
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        engine.run()
        (when, msg), = got
        assert when == net.cfg.message_latency(0, 1, 8)
        assert msg.mtype is MessageType.GETS

    def test_data_slower_than_control(self):
        engine, net = _net()
        times = {}
        net.register(3, lambda m: times.setdefault(m.mtype, engine.now))
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=3))
        net.send(Message(MessageType.DATA, 0x40, src=0, dst=3,
                         words=[0] * 16))
        engine.run()
        assert times[MessageType.DATA] > times[MessageType.GETS]

    def test_unregistered_destination(self):
        _engine, net = _net()
        with pytest.raises(ValueError):
            net.send(Message(MessageType.GETS, 0x40, src=0, dst=3))

    def test_double_register_rejected(self):
        _engine, net = _net()
        net.register(0, lambda m: None)
        with pytest.raises(ValueError):
            net.register(0, lambda m: None)

    def test_extra_delay(self):
        engine, net = _net()
        got = []
        net.register(1, lambda m: got.append(engine.now))
        net.send(Message(MessageType.ACK, 0x40, src=0, dst=1), extra_delay=10)
        engine.run()
        assert got[0] == net.cfg.message_latency(0, 1, 8) + 10


class TestAccounting:
    def test_class_counts(self):
        engine, net = _net()
        net.register(1, lambda m: None)
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        net.send(Message(MessageType.GETX, 0x40, src=0, dst=1))
        net.send(Message(MessageType.UPGRADE, 0x40, src=0, dst=1))
        net.send(Message(MessageType.INV, 0x40, src=0, dst=1))
        net.send(Message(MessageType.DATA, 0x40, src=0, dst=1, words=[0] * 16))
        engine.run()
        counts = net.class_counts()
        assert counts[MessageClass.GETS] == 1
        assert counts[MessageClass.GETX] == 1
        assert counts[MessageClass.UPGRADE] == 1
        assert counts[MessageClass.OTHER] == 1
        assert counts[MessageClass.DATA] == 1

    def test_flit_accounting(self):
        engine, net = _net()
        net.register(1, lambda m: None)
        net.send(Message(MessageType.DATA, 0x40, src=0, dst=1, words=[0] * 16))
        engine.run()
        # 64B block + 8B header = 72B -> 5 flits of 16B, one hop
        assert net.stats.flits == 5
        assert net.stats.flit_hops == 5
        assert net.stats.router_traversals == 10  # 2 routers x 5 flits

    def test_account_transfer_counts_without_delivery(self):
        _engine, net = _net()
        lat = net.account_transfer(0, 3, data=True)
        assert lat == net.cfg.message_latency(0, 3, 72)
        assert net.stats.messages == 1
        assert net.class_counts()[MessageClass.OTHER] == 1

    def test_finalize_stats_exports_classes(self):
        engine, net = _net()
        net.register(1, lambda m: None)
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        engine.run()
        net.finalize_stats()
        assert net.stats.msgs_GETS == 1

    def test_data_message_requires_words(self):
        with pytest.raises(Exception):
            Message(MessageType.DATA, 0x40, src=0, dst=1)


class TestInFlight:
    """The wire is read off the engine queue: undelivered messages, in
    send order, whatever order they arrive in."""

    def test_send_order_not_delivery_order(self):
        engine, net = _net(cols=4, rows=4)
        arrived = []
        seen_from_handler = []

        def handler(msg):
            arrived.append(msg)
            seen_from_handler.append(list(net.in_flight()))

        for node in (1, 15):
            net.register(node, handler)
        far = Message(MessageType.DATA, 0x40, src=0, dst=15, words=[0] * 16)
        near = Message(MessageType.GETS, 0x80, src=0, dst=1)
        late = Message(MessageType.INV, 0xc0, src=0, dst=1)
        for msg in (far, near):
            net.send(msg)
        engine.run_until(0)
        net.send(late, extra_delay=3)
        assert net.in_flight() == [far, near, late]
        assert net.blocks_in_flight() == {0x40, 0x80, 0xc0}
        engine.run()
        assert arrived == [near, late, far]
        # a handler sees neither its own message nor earlier arrivals
        assert seen_from_handler == [[far, late], [far], []]
        assert net.in_flight() == [] and net.blocks_in_flight() == set()

    def test_blocks_in_flight_agrees_with_in_flight(self):
        engine, net = _net(cols=4, rows=4)
        net.register(3, lambda m: None)
        net.register(12, lambda m: None)
        for i in range(6):
            net.send(Message(MessageType.GETS, 0x40 * (i % 4), src=i % 2,
                             dst=3 if i % 3 else 12))
            engine.run_until(engine.now + 1)
            assert net.blocks_in_flight() == {
                m.block_addr for m in net.in_flight()}
        assert [m.seq for m in net.in_flight()] == sorted(
            m.seq for m in net.in_flight())

    def test_other_queued_events_are_not_messages(self):
        engine, net = _net()
        net.register(1, lambda m: None)
        engine.schedule(1, lambda: None)
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        assert [m.block_addr for m in net.in_flight()] == [0x40]
        assert engine.pending() == 2

    def test_directory_handler_picked_at_send(self):
        engine, net = _net()
        got = []
        net.register(1, lambda m: got.append(("l1", m.mtype)),
                     lambda m: got.append(("dir", m.mtype)))
        net.send(Message(MessageType.GETS, 0x40, src=0, dst=1))
        net.send(Message(MessageType.INV, 0x40, src=0, dst=1))
        engine.run()
        assert got == [("dir", MessageType.GETS), ("l1", MessageType.INV)]
