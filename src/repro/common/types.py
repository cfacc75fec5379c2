"""Core enumerations and small value types shared across the simulator.

Everything here is deliberately dependency-free so that every other
subpackage (caches, coherence, NoC, workloads) can import it without
cycles.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "AccessType",
    "CoherenceState",
    "DirState",
    "MessageType",
    "MessageClass",
    "WORD_BYTES",
    "WORD_BITS",
    "WORD_MASK",
]

#: All functional memory in the simulator is word-granular: 32-bit words.
WORD_BYTES = 4
WORD_BITS = 32
WORD_MASK = 0xFFFFFFFF


class AccessType(enum.Enum):
    """Kind of memory reference a core issues to its L1."""

    LOAD = "load"
    STORE = "store"
    #: Approximate store (the paper's ``scribble`` instruction).  Falls back
    #: to a conventional STORE whenever the value-similarity check fails.
    SCRIBBLE = "scribble"

    @property
    def is_write(self) -> bool:
        """True for stores and scribbles."""
        return self is not AccessType.LOAD


class CoherenceState(enum.Enum):
    """L1 cache-block states.

    Stable MESI states plus Ghostwriter's approximate states (``GS``,
    ``GI``) and the transient states of the blocking directory protocol.
    ``I`` at the L1 means *tag present but invalid* when the tag exists
    (matching Fig. 3 of the paper); a genuinely absent block simply has no
    entry in the cache.

    Every member carries six boolean flags as plain attributes, set once
    below the class (reading one is an attribute load, not a set probe
    that would hash the member):

    * ``stable`` — not transient;
    * ``transient`` — a transaction is in flight;
    * ``readable`` — loads hit without a coherence transaction;
    * ``writable`` — conventional stores hit without a transaction;
    * ``approximate`` — the Ghostwriter GS/GI states;
    * ``owns_dirty_data`` — written back on (non-approximate) eviction.
    """

    # --- stable ---
    I = "I"          # noqa: E741 - mirrors the literature
    S = "S"
    E = "E"
    M = "M"
    #: MOESI Owned: dirty + shared; this cache supplies data on forwards
    O = "O"          # noqa: E741
    # --- Ghostwriter approximate states ---
    GS = "GS"        # locally-modified shared copy, hidden from directory
    GI = "GI"        # locally-modified invalid copy, timeout-bounded
    # --- transient (request in flight) ---
    IS_D = "IS_D"    # I -> S, waiting for data
    IM_D = "IM_D"    # I -> M, waiting for data (+acks)
    SM_D = "SM_D"    # S -> M via UPGRADE, waiting for ack/data


def _set_flags(members, flags: dict[str, set]) -> None:
    """Give every enum member one boolean attribute per flag: True for
    the members the flag's set names."""
    for member in members:
        for flag, holders in flags.items():
            setattr(member, flag, member in holders)


_CS = CoherenceState
_set_flags(CoherenceState, {
    "stable": {_CS.I, _CS.S, _CS.E, _CS.M, _CS.O, _CS.GS, _CS.GI},
    "transient": {_CS.IS_D, _CS.IM_D, _CS.SM_D},
    "readable": {_CS.S, _CS.E, _CS.M, _CS.O, _CS.GS, _CS.GI},
    "writable": {_CS.E, _CS.M, _CS.GS, _CS.GI},
    "approximate": {_CS.GS, _CS.GI},
    "owns_dirty_data": {_CS.M, _CS.O},
})


class DirState(enum.Enum):
    """Directory-side (home) states for a block."""

    I = "I"          # noqa: E741 - no L1 holds the block
    S = "S"          # one or more read-only sharers
    EM = "EM"        # a single owner holds the block in E or M
    O = "O"          # noqa: E741 - MOESI: a dirty owner plus sharers


class MessageClass(enum.Enum):
    """Traffic class used for the Fig. 8 breakdown and NoC accounting."""

    GETS = "GETS"
    GETX = "GETX"
    UPGRADE = "UPGRADE"
    DATA = "Data"
    OTHER = "Other"


class MessageType(enum.Enum):
    """Every coherence message exchanged between L1s and directories.

    Each member carries its wire ``label``, its Fig. 8 traffic ``klass``,
    ``carries_data``, and ``to_directory`` (set below the class): True
    when the message is addressed to a home agent rather than an L1,
    which is how a tile hosting both demultiplexes its inbound traffic.
    """

    # requests: L1 -> directory
    GETS = ("GETS", MessageClass.GETS, False)
    GETX = ("GETX", MessageClass.GETX, False)
    UPGRADE = ("UPGRADE", MessageClass.UPGRADE, False)
    PUTS = ("PUTS", MessageClass.OTHER, False)      # clean eviction notice
    PUTE = ("PUTE", MessageClass.OTHER, False)      # silent-exclusive eviction
    PUTM = ("PUTM", MessageClass.DATA, True)        # dirty writeback (data)
    # directory -> L1
    DATA = ("DATA", MessageClass.DATA, True)        # fill with data
    DATA_E = ("DATA_E", MessageClass.DATA, True)    # fill, exclusive grant
    ACK = ("ACK", MessageClass.OTHER, False)        # upgrade grant / wb ack
    INV = ("INV", MessageClass.OTHER, False)        # invalidate your copy
    #: write-update hybrid: refresh your shared copy with this data
    UPDATE = ("UPDATE", MessageClass.DATA, True)
    FWD_GETS = ("FWD_GETS", MessageClass.OTHER, False)
    FWD_GETX = ("FWD_GETX", MessageClass.OTHER, False)
    # L1 -> L1 / L1 -> directory responses
    INV_ACK = ("INV_ACK", MessageClass.OTHER, False)
    FWD_DATA = ("FWD_DATA", MessageClass.DATA, True)   # owner -> requestor
    CHAIN_DATA = ("CHAIN_DATA", MessageClass.DATA, True)  # owner -> home copy
    CHAIN_ACK = ("CHAIN_ACK", MessageClass.OTHER, False)  # owner -> home, no data
    #: MOESI: owner served the forward and *kept* the block in O
    CHAIN_ACK_OWNED = ("CHAIN_ACK_OWNED", MessageClass.OTHER, False)

    def __init__(self, label: str, klass: MessageClass, carries_data: bool):
        self.label = label
        self.klass = klass
        self.carries_data = carries_data


_MT = MessageType
_set_flags(MessageType, {
    "to_directory": {
        _MT.GETS, _MT.GETX, _MT.UPGRADE, _MT.PUTS, _MT.PUTE, _MT.PUTM,
        _MT.INV_ACK, _MT.CHAIN_DATA, _MT.CHAIN_ACK, _MT.CHAIN_ACK_OWNED,
    },
})


@dataclass(frozen=True, slots=True)
class WordAddr:
    """A validated, word-aligned byte address.

    Thin wrapper used at API boundaries (workload allocator, typed views);
    the hot simulator paths pass plain ints.
    """

    byte_addr: int

    def __post_init__(self) -> None:
        if self.byte_addr < 0:
            raise ValueError(f"negative address {self.byte_addr:#x}")
        if self.byte_addr % WORD_BYTES:
            raise ValueError(
                f"address {self.byte_addr:#x} is not {WORD_BYTES}-byte aligned"
            )

    @property
    def word_index(self) -> int:
        """The address expressed in 32-bit words."""
        return self.byte_addr // WORD_BYTES

    def __int__(self) -> int:
        return self.byte_addr
