"""DRAM timing model.

A deliberately simple DDR3-class abstraction: fixed access latency plus
per-bank busy windows (address-interleaved banks).  A request to a busy
bank queues behind it.  Functional data comes from the
:class:`~repro.mem.backing.BackingStore`; this module only answers "when"
and counts accesses for the energy model.
"""
from __future__ import annotations

from typing import Callable

from repro.common.config import DramConfig
from repro.common.stats import StatGroup
from repro.sim.engine import Engine

__all__ = ["Dram"]


class Dram:
    """Bank-aware fixed-latency DRAM behind the L2 slices."""

    __slots__ = ("cfg", "engine", "stats", "_c", "block_bytes",
                 "_bank_free_at")

    def __init__(self, cfg: DramConfig, engine: Engine, block_bytes: int,
                 stats: StatGroup | None = None) -> None:
        self.cfg = cfg
        self.engine = engine
        self.block_bytes = block_bytes
        self.stats = stats if stats is not None else StatGroup("dram")
        # live counter dict; each counter is created on its first bump
        self._c = self.stats.counters()
        self._bank_free_at = [0] * cfg.num_banks

    def _bank(self, block_addr: int) -> int:
        return (block_addr // self.block_bytes) % self.cfg.num_banks

    def _access(self, block_addr: int, done: Callable[[], None]) -> None:
        c = self._c
        bank = self._bank(block_addr)
        start = max(self.engine.now, self._bank_free_at[bank])
        queue_delay = start - self.engine.now
        self._bank_free_at[bank] = start + self.cfg.bank_busy_cycles
        c["queue_cycles"] = c.get("queue_cycles", 0) + queue_delay
        self.engine.schedule(queue_delay + self.cfg.access_latency, done)

    def read(self, block_addr: int, done: Callable[[], None]) -> None:
        """Schedule ``done`` when the block read completes."""
        c = self._c
        c["reads"] = c.get("reads", 0) + 1
        self._access(block_addr, done)

    # -- checkpoint layer ---------------------------------------------
    def snapshot(self) -> dict:
        """Restorable timing state: per-bank busy horizons."""
        return {"bank_free_at": list(self._bank_free_at)}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state."""
        self._bank_free_at = list(blob["bank_free_at"])

    def write(self, block_addr: int, done: Callable[[], None] | None = None) -> None:
        """Schedule a block writeback; ``done`` is optional (posted write)."""
        c = self._c
        c["writes"] = c.get("writes", 0) + 1
        self._access(block_addr, done if done is not None else _noop)


def _noop() -> None:
    return None
