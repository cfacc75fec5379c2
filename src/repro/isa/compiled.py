"""Recorded thread programs: the value log checkpointing replays from.

A thread program is a generator, and a generator's frame cannot be
pickled.  It is, however, a deterministic function of the values sent
into it, so the list of values the core delivered — one entry per
``send``, ``None`` where the core called ``next`` — is enough to rebuild
the frame on a fresh generator from the same factory.

* :class:`ProgramRecorder` — that value log.  ``Machine.add_thread``
  arms one per core only when a checkpoint recorder is attached; a
  default run records nothing.
* :func:`resync_generator` / :func:`replay_to_completion` — pure-Python
  generator replays driven by the log.  They touch no simulated
  machine: only the program's own Python side effects (result
  collection) execute.  ``Core.restore`` uses the first to continue a
  checkpointed core mid-stream and the second to redo a finished
  core's side effects in a fresh workload instance.
"""
from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

__all__ = ["ProgramRecorder", "ProgramCache",
           "resync_generator", "replay_to_completion"]


class ProgramRecorder:
    """The values a core sent into its program, in fetch order."""

    __slots__ = ("sends",)

    def __init__(self, sends: Sequence[int | None] = ()) -> None:
        self.sends: list[int | None] = list(sends)


# inert: nothing caches programs; ``perfbench/`` binds it (ROADMAP item 2)
class ProgramCache:
    """Always-empty stand-in for the deleted program cache."""

    hits = 0

    def get(self, key: Hashable) -> None:
        """Always a miss."""
        return None

    def clear(self) -> None:
        """Nothing to drop."""


def resync_generator(factory: Callable[[], Any],
                     sends: Sequence[int | None]) -> Any:
    """A fresh generator fed every value in ``sends``.

    Afterwards the generator has yielded its ``len(sends)``-th op and
    awaits the next ``send`` — the state the recorded run was in.
    """
    gen = factory()
    for value in sends:
        gen.send(value)
    return gen


def replay_to_completion(factory: Callable[[], Any],
                         sends: Sequence[int | None]) -> None:
    """Run a finished program's whole recording (side effects only).

    The last recorded send is the one that ended the program, so it must
    raise ``StopIteration``.
    """
    gen = resync_generator(factory, sends[:-1])
    try:
        op = gen.send(sends[-1])
    except StopIteration:
        return
    raise RuntimeError(
        f"program yielded {op!r} beyond its {len(sends) - 1}-op recording "
        "(non-deterministic thread program?)"
    )
