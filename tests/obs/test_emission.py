"""Component event emission: what a traced machine actually puts on the bus."""
from repro.common.types import CoherenceState
from repro.obs.events import EventKind, EventRecorder

from tests.conftest import (
    Compute, Load, Scribble, SetAprx, Store, build_machine, run_scripts,
)

BLK = 0x4000


def _traced(num_cores=2, **kwargs):
    m = build_machine(num_cores, **kwargs)
    rec = EventRecorder()
    m.attach_bus().subscribe(rec.record)
    return m, rec


class TestAttachBus:
    def test_default_machine_has_no_bus(self):
        m = build_machine(2)
        assert m.bus is None
        for l1 in m.l1s:
            assert l1.bus is None
        assert m.network.bus is None

    def test_attach_is_idempotent_and_wires_everything(self):
        m = build_machine(2)
        bus = m.attach_bus()
        assert m.attach_bus() is bus
        assert m.network.bus is bus
        for l1 in m.l1s:
            assert l1.bus is bus
            assert l1.scribe.bus is bus
        for slc in m.l2_slices:
            assert slc.bus is bus


class TestAccessEvents:
    """``ACCESS`` events come from the emitting ``access`` variant that
    ``attach_bus`` installs; an unbused L1 runs the plain method."""

    def test_unbused_l1_runs_the_class_method(self):
        m = build_machine(2)
        for l1 in m.l1s:
            assert "access" not in vars(l1)
        m.attach_bus()
        for l1 in m.l1s:
            assert l1.access == l1._access_with_event

    def test_one_event_per_access_matching_the_l1_counters(self):
        from repro.harness.experiment import experiment_config
        from repro.workloads.registry import create

        cfg = experiment_config(enabled=True, d_distance=4, num_cores=4)
        w = create("bad_dot_product", num_threads=4, seed=3, n_points=256,
                   max_value=7)
        m = w.prepare(cfg)
        rec = EventRecorder()
        m.attach_bus().subscribe(rec.record, kinds={EventKind.ACCESS})
        m.run()
        events = rec.by_kind(EventKind.ACCESS)
        l1 = m.stats.child("l1")
        loads, stores = l1.total("loads"), l1.total("stores")
        assert loads and stores
        assert len(events) == len(rec) == loads + stores
        assert sum(e.what == "load" for e in events) == loads
        hits = sum(e.info == "hit" for e in events)
        assert hits == l1.total("load_hits") + l1.total("store_hits")
        assert len(events) - hits == (
            l1.total("load_misses") + l1.total("store_misses"))


class TestEmission:
    def test_sharing_run_emits_every_core_kind(self):
        m, rec = _traced(2)

        def writer():
            yield Store(BLK, 1)
            yield Compute(50)

        def reader():
            yield Compute(20)
            yield Load(BLK)

        run_scripts(m, writer(), reader())
        kinds = {e.kind for e in rec}
        assert {EventKind.ACCESS, EventKind.STATE, EventKind.MSG,
                EventKind.DIR, EventKind.L2} <= kinds
        assert m.bus.events_emitted == len(rec)

    def test_access_events_skipped_without_access_subscriber(self):
        """A machine traced for state transitions only never constructs
        (or counts) per-access Events — the L1 hot path asks
        bus.wants(ACCESS) before allocating."""
        m = build_machine(2)
        rec = EventRecorder()
        m.attach_bus().subscribe(rec.record, kinds={EventKind.STATE})

        def writer():
            yield Store(BLK, 1)
            yield Compute(50)

        def reader():
            yield Compute(20)
            yield Load(BLK)

        run_scripts(m, writer(), reader())
        kinds = {e.kind for e in rec}
        assert EventKind.STATE in kinds
        assert EventKind.ACCESS not in kinds

    def test_access_events_carry_byte_addr_and_hit_info(self):
        m, rec = _traced(1)

        def prog():
            yield Store(BLK + 4, 9)
            yield Load(BLK + 4)

        run_scripts(m, prog())
        acc = rec.by_kind(EventKind.ACCESS)
        assert [e.what for e in acc] == ["store", "load"]
        assert [e.info for e in acc] == ["miss", "hit"]
        assert all(e.addr == BLK + 4 for e in acc)

    def test_state_events_name_the_transition(self):
        m, rec = _traced(1)

        def prog():
            yield Store(BLK, 3)

        run_scripts(m, prog())
        whats = [e.what for e in rec.by_kind(EventKind.STATE)]
        assert any(w.endswith("->M") for w in whats)

    def test_msg_events_carry_message_class(self):
        m, rec = _traced(2)

        def writer():
            yield Store(BLK, 1)

        def reader():
            yield Compute(100)
            yield Load(BLK)

        run_scripts(m, writer(), reader())
        msgs = rec.by_kind(EventKind.MSG)
        assert {"GETS", "GETX"} <= {e.info for e in msgs}

    def test_scribble_on_s_emits_accept_and_enters_gs(self):
        # M copies absorb scribbles exactly (no comparator, no event);
        # the similarity check — and the GS entry it grants — happens
        # when the writer scribbles on a demoted S copy.
        m, rec = _traced(2, d_distance=4)

        def owner():
            yield SetAprx(4)
            yield Store(BLK, 0b1000)
            yield Compute(200)
            yield Scribble(BLK, 0b1001)   # on S, 1 bit away: accepted

        def reader():
            yield Compute(60)
            yield Load(BLK)               # demotes the owner M->S

        run_scripts(m, owner(), reader())
        sc = rec.by_kind(EventKind.SCRIBBLE)
        assert [e.what for e in sc] == ["accept"]
        assert sc[0].value == 1           # observed d-distance
        assert sc[0].node == 0
        whats = [e.what for e in rec.by_kind(EventKind.STATE)]
        assert any(w.endswith(f"->{CoherenceState.GS.value}")
                   for w in whats), whats
