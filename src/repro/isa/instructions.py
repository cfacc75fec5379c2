"""The simulated instruction set, as yielded by thread programs.

Thread programs are Python generators that ``yield`` these ops; the core
model executes them and ``send``s load results back in.  The set mirrors
the paper's ISA surface:

* ``Load`` / ``Store`` — conventional memory references (32-bit words).
* ``Scribble`` — the approximate store (usually emitted automatically by
  the :class:`~repro.isa.approx.ApproxManager` when a ``Store`` targets an
  annotated region, mirroring the paper's compiler pass).
* ``SetAprx`` / ``EndAprx`` — (re)program / disable the scribe comparator
  (the paper's ``setaprx``/``endaprx`` opcodes; `approx_dist` pragma).
* ``ApproxBegin`` / ``ApproxEnd`` — the `approx_begin`/`approx_end`
  pragmas: mark address ranges whose stores become scribbles.
* ``Compute`` — advance local time (non-memory work).
* ``BarrierWait`` / ``Acquire`` / ``Release`` — scheduler-level sync.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sync import Barrier, Lock

__all__ = [
    "Load", "Store", "Scribble", "Compute",
    "SetAprx", "EndAprx", "ApproxBegin", "ApproxEnd", "FlushApprox",
    "BarrierWait", "Acquire", "Release", "Op",
]


# The memory ops are built once per simulated access, so they are
# slotted but not frozen: a frozen dataclass's __init__ goes through
# object.__setattr__ per field, about twice the cost.  Programs never
# mutate an op after yielding it; equality and repr are unchanged.
@dataclass(slots=True)
class Load:
    addr: int


@dataclass(slots=True)
class Store:
    addr: int
    value: int  # 32-bit pattern


@dataclass(slots=True)
class Scribble:
    """Explicitly approximate store (bypasses region lookup)."""

    addr: int
    value: int


@dataclass(frozen=True, slots=True)
class Compute:
    cycles: int


@dataclass(frozen=True, slots=True)
class SetAprx:
    """Program the L1 scribe comparator with a new d-distance."""

    d_distance: int


@dataclass(frozen=True, slots=True)
class EndAprx:
    """Disable approximate transitions at this core's L1."""


@dataclass(frozen=True, slots=True)
class ApproxBegin:
    """Enable scribble conversion for the given (start, end) byte ranges."""

    ranges: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class ApproxEnd:
    ranges: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class FlushApprox:
    """Model a context switch / thread join (paper §3.5): the core's
    approximate (GS/GI) lines are dropped to I, forfeiting their local
    updates, so subsequent loads observe globally coherent data."""


@dataclass(frozen=True, slots=True)
class BarrierWait:
    barrier: "Barrier"


@dataclass(frozen=True, slots=True)
class Acquire:
    lock: "Lock"


@dataclass(frozen=True, slots=True)
class Release:
    lock: "Lock"


Op = (
    Load | Store | Scribble | Compute | SetAprx | EndAprx
    | ApproxBegin | ApproxEnd | FlushApprox
    | BarrierWait | Acquire | Release
)
