"""Unit tests for repro.common.types."""
import pytest

from repro.common.types import (
    AccessType,
    CoherenceState,
    MessageClass,
    MessageType,
    WordAddr,
    WORD_BYTES,
)


class TestAccessType:
    def test_is_write(self):
        assert not AccessType.LOAD.is_write
        assert AccessType.STORE.is_write
        assert AccessType.SCRIBBLE.is_write


class TestCoherenceState:
    def test_stable_states(self):
        for s in (CoherenceState.I, CoherenceState.S, CoherenceState.E,
                  CoherenceState.M, CoherenceState.GS, CoherenceState.GI):
            assert s.stable
            assert not s.transient

    def test_transient_states(self):
        for s in (CoherenceState.IS_D, CoherenceState.IM_D,
                  CoherenceState.SM_D):
            assert s.transient
            assert not s.stable

    def test_readable(self):
        assert CoherenceState.S.readable
        assert CoherenceState.E.readable
        assert CoherenceState.M.readable
        assert CoherenceState.GS.readable, "paper: loads hit on GS"
        assert CoherenceState.GI.readable, "paper: loads hit on GI"
        assert not CoherenceState.I.readable
        assert not CoherenceState.IS_D.readable

    def test_writable(self):
        assert CoherenceState.E.writable
        assert CoherenceState.M.writable
        assert CoherenceState.GS.writable, "paper: stores hit on GS"
        assert CoherenceState.GI.writable, "paper: stores hit on GI"
        assert not CoherenceState.S.writable
        assert not CoherenceState.I.writable

    def test_approximate_flags(self):
        assert CoherenceState.GS.approximate
        assert CoherenceState.GI.approximate
        assert not CoherenceState.M.approximate

    def test_dirty_owner_states(self):
        dirty = [s for s in CoherenceState if s.owns_dirty_data]
        assert dirty == [CoherenceState.M, CoherenceState.O]

    def test_owned_state_properties(self):
        assert CoherenceState.O.stable
        assert CoherenceState.O.readable
        assert not CoherenceState.O.writable
        assert not CoherenceState.O.approximate


#: every CoherenceState member's flags, as
#: (stable, transient, readable, writable, approximate, owns_dirty_data)
STATE_FLAGS = {
    "I":    (True,  False, False, False, False, False),
    "S":    (True,  False, True,  False, False, False),
    "E":    (True,  False, True,  True,  False, False),
    "M":    (True,  False, True,  True,  False, True),
    "O":    (True,  False, True,  False, False, True),
    "GS":   (True,  False, True,  True,  True,  False),
    "GI":   (True,  False, True,  True,  True,  False),
    "IS_D": (False, True,  False, False, False, False),
    "IM_D": (False, True,  False, False, False, False),
    "SM_D": (False, True,  False, False, False, False),
}
FLAG_NAMES = ("stable", "transient", "readable", "writable", "approximate",
              "owns_dirty_data")

#: the message types a home agent (not an L1) receives
TO_DIRECTORY = {
    "GETS", "GETX", "UPGRADE", "PUTS", "PUTE", "PUTM",
    "INV_ACK", "CHAIN_DATA", "CHAIN_ACK", "CHAIN_ACK_OWNED",
}


class TestFlagTables:
    """The member-attribute flags, pinned against explicit tables."""

    def test_every_state_flag(self):
        assert {s.name for s in CoherenceState} == set(STATE_FLAGS)
        for state in CoherenceState:
            got = tuple(getattr(state, flag) for flag in FLAG_NAMES)
            assert got == STATE_FLAGS[state.name], state
            assert all(type(v) is bool for v in got), state

    def test_every_message_routing_bit(self):
        for mtype in MessageType:
            assert mtype.to_directory is (mtype.name in TO_DIRECTORY), mtype
        assert TO_DIRECTORY <= {m.name for m in MessageType}


class TestMessageType:
    def test_data_bearing(self):
        assert MessageType.DATA.carries_data
        assert MessageType.DATA_E.carries_data
        assert MessageType.PUTM.carries_data
        assert MessageType.FWD_DATA.carries_data
        assert MessageType.CHAIN_DATA.carries_data
        assert not MessageType.GETS.carries_data
        assert not MessageType.INV.carries_data

    def test_fig8_classes(self):
        """The Fig. 8 traffic breakdown buckets."""
        assert MessageType.GETS.klass is MessageClass.GETS
        assert MessageType.GETX.klass is MessageClass.GETX
        assert MessageType.UPGRADE.klass is MessageClass.UPGRADE
        assert MessageType.DATA.klass is MessageClass.DATA
        assert MessageType.INV.klass is MessageClass.OTHER
        assert MessageType.INV_ACK.klass is MessageClass.OTHER

    def test_every_type_has_class(self):
        for mt in MessageType:
            assert isinstance(mt.klass, MessageClass)
            assert mt.label


class TestWordAddr:
    def test_valid(self):
        a = WordAddr(64)
        assert int(a) == 64
        assert a.word_index == 16

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            WordAddr(WORD_BYTES + 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WordAddr(-4)
