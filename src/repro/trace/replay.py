"""Trace-driven re-simulation.

Replays a recorded trace through a *fresh* machine, typically under a
different protocol configuration — the classic trace-driven methodology
for protocol studies: record once on the baseline, replay under every
candidate design.

Each core's accesses are replayed in recorded program order with
``Compute`` gaps reconstructed from the recorded inter-access cycle
deltas (capped, so a slow recorded run does not pad a fast replay).
Recorded scribbles stay scribbles; ``SetAprx`` is issued up front.

Replay is *timing-faithful in structure only*: the replayed machine
re-decides hits/misses and coherence actions itself, which is exactly
the point of replaying under a different protocol.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.config import SimConfig
from repro.isa import instructions as isa
from repro.sim.machine import Machine
from repro.trace.record import Trace

__all__ = ["replay_trace"]

_MAX_GAP = 200  # cap reconstructed compute gaps (cycles)


def _replay_ops(sub: Trace, d_distance: int) -> Iterator[isa.Op]:
    """One core's trace columns as an op stream: ``SetAprx`` up front,
    a ``Compute`` for every inter-access gap above the hit latency
    (capped at ``_MAX_GAP``), then the access itself."""
    yield isa.SetAprx(d_distance)
    cycles = sub.cycles.tolist()
    last = cycles[0] if cycles else 0
    for cycle, code, addr, value in zip(cycles, sub.atypes.tolist(),
                                        sub.addrs.tolist(),
                                        sub.values.tolist()):
        gap = cycle - last
        last = cycle
        if gap > 2:
            yield isa.Compute(min(gap, _MAX_GAP))
        if code == 0:
            yield isa.Load(addr)
        elif code == 1:
            yield isa.Store(addr, value & 0xFFFFFFFF)
        else:
            yield isa.Scribble(addr, value & 0xFFFFFFFF)


def replay_trace(trace: Trace, cfg: SimConfig,
                 initial_memory: dict[int, list[int]] | None = None,
                 max_cycles: int = 500_000_000) -> Machine:
    """Replay ``trace`` on a machine built from ``cfg``.

    ``initial_memory`` (block addr -> words) seeds the backing store —
    pass ``machine.backing.memory_image()`` taken *before* the recorded
    run (or the ``memory`` layer of a
    :class:`~repro.sim.state.MachineCheckpoint` blob) for value-faithful
    replay.  Returns the finished machine for stats inspection.
    """
    machine = Machine(cfg)
    if initial_memory:
        for block, words in initial_memory.items():
            machine.backing.write_block(block, words)

    cores = np.unique(trace.cores)
    if cores.size == 0:
        raise ValueError("cannot replay an empty trace")
    if int(cores.max()) >= cfg.num_cores:
        raise ValueError(
            f"trace uses core {int(cores.max())} but the machine has "
            f"{cfg.num_cores}"
        )
    for core in cores.tolist():
        machine.add_thread(int(core), _replay_ops(
            trace.for_core(int(core)), cfg.ghostwriter.d_distance))
    machine.run(max_cycles=max_cycles)
    machine.check_quiescent()
    return machine
