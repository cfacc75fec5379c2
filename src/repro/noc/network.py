"""Network-on-chip transport: delivery scheduling + traffic accounting.

Latency model (documented in DESIGN.md): a message from ``src`` to ``dst``
takes the topology's path latency — ``hops * (router_latency +
link_latency)`` on the default mesh; see :mod:`repro.noc.topologies` for
ring/crossbar/chiplet — plus a serialization term
of ``flits - 1`` cycles.  There is no contention/VC arbitration model; the
paper's first-order effect — fewer coherence transactions means less
traffic, energy and stall time — is carried entirely by message counts and
hop-weighted flit counts, which we account exactly per
:class:`~repro.common.types.MessageClass` for Fig. 8 and the DSENT-style
energy model (Fig. 9).
"""
from __future__ import annotations

from functools import partial
from typing import Callable

from repro.common.config import NocConfig
from repro.common.stats import StatGroup
from repro.common.types import MessageClass
from repro.coherence.messages import Message
from repro.noc.topologies import build_topology
from repro.obs.events import Event, EventKind
from repro.sim.engine import Engine

__all__ = ["Network"]


class Network:
    """Routes :class:`Message` objects between registered endpoints.

    A delivery is one queued ``functools.partial(handler, msg)``: the
    handler is picked when the message is sent, and nothing else tracks
    the message until it arrives, so :meth:`in_flight` reads the wire
    off the engine queue.
    """

    __slots__ = ("cfg", "topo", "engine", "stats", "block_bytes",
                 "_endpoints", "_class_counts", "fault_hook", "bus", "_c",
                 "_routes", "_data_payload", "_ctrl_payload", "_sent")

    def __init__(self, cfg: NocConfig, engine: Engine, block_bytes: int,
                 stats: StatGroup | None = None) -> None:
        self.cfg = cfg
        #: the config's route/latency model (repro.noc.topologies)
        self.topo = build_topology(cfg)
        self.engine = engine
        self.block_bytes = block_bytes
        self.stats = stats if stats is not None else StatGroup("noc")
        #: node -> (handler of L1-bound messages, handler of
        #: directory-bound ones), indexed by ``MessageType.to_directory``
        self._endpoints: dict[int, tuple[Callable[[Message], None],
                                         Callable[[Message], None]]] = {}
        # eagerly materialize the Fig. 8 class counters, keyed by the
        # class's string value: a str key hashes in C, an enum member
        # through the Python-level Enum.__hash__ (and the per-message
        # paths read ``_value_``, the plain attribute behind the
        # ``value`` descriptor)
        self._class_counts = {klass.value: 0 for klass in MessageClass}
        #: wire size of a data-bearing / control message
        self._data_payload = block_bytes + cfg.control_msg_bytes
        self._ctrl_payload = cfg.control_msg_bytes
        self._c = self.stats.counters(
            "messages", "flits", "flit_hops", "router_traversals",
            "payload_bytes",
        )
        # (src, dst, payload) -> (latency, flits, flit_hops, traversals):
        # the route terms are pure functions of the topology's config,
        # so the memo lives on the (memoized, shared) topology object
        self._routes = self.topo.route_costs
        #: messages sent so far; stamps each message's ``seq`` so
        #: :meth:`in_flight` can list the wire in send order
        self._sent = 0
        #: optional fault-injection hook, called once per send; may
        #: corrupt ``msg.words`` and returns extra delivery delay cycles
        self.fault_hook: Callable[[Message], int] | None = None
        #: event bus (repro.obs); None keeps send() to one attribute check
        self.bus = None

    def register(self, node: int, handler: Callable[[Message], None],
                 directory: Callable[[Message], None] | None = None) -> None:
        """Bind the message handlers of a mesh node (once per node).

        ``directory`` receives the messages addressed to a home agent
        (``MessageType.to_directory``) and ``handler`` the rest; without
        ``directory``, ``handler`` receives every message.
        """
        if not 0 <= node < self.cfg.num_nodes:
            raise ValueError(f"node {node} outside mesh")
        if node in self._endpoints:
            raise ValueError(f"node {node} already registered")
        self._endpoints[node] = (
            handler, handler if directory is None else directory)

    # -- transport -------------------------------------------------------
    def send(self, msg: Message, extra_delay: int = 0) -> None:
        """Account and deliver ``msg`` after its modeled latency.

        ``extra_delay`` lets a sender fold local processing time (e.g. an
        L2 array access) into the same scheduling step.
        """
        ends = self._endpoints.get(msg.dst)
        if ends is None:
            raise ValueError(f"no endpoint registered at node {msg.dst}")
        mtype = msg.mtype
        payload = (self._data_payload if mtype.carries_data
                   else self._ctrl_payload)
        key = (msg.src, msg.dst, payload)
        route = self._routes.get(key)
        if route is None:
            route = self._route(key)
        self._class_counts[mtype.klass._value_] += 1
        c = self._c
        c["messages"] += 1
        c["flits"] += route[1]
        c["flit_hops"] += route[2]
        c["router_traversals"] += route[3]
        c["payload_bytes"] += payload
        if self.bus is not None:
            self.bus.emit(Event(
                self.engine.now, EventKind.MSG, msg.src, msg.block_addr,
                mtype.label, mtype.klass.value, msg.dst,
            ))
        if self.fault_hook is not None:
            extra_delay += self.fault_hook(msg)
        self._sent = msg.seq = self._sent + 1
        self.engine.schedule(route[0] + extra_delay,
                             partial(ends[mtype.to_directory], msg))

    def account_transfer(
        self, src: int, dst: int, data: bool,
        klass: MessageClass = MessageClass.OTHER,
    ) -> int:
        """Account an internal transfer (e.g. directory <-> L2 slice) and
        return its latency, without delivering a message object.  Used for
        hops the home agent orchestrates directly."""
        payload = self._data_payload if data else self._ctrl_payload
        key = (src, dst, payload)
        route = self._routes.get(key)
        if route is None:
            route = self._route(key)
        self._class_counts[klass._value_] += 1
        c = self._c
        c["messages"] += 1
        c["flits"] += route[1]
        c["flit_hops"] += route[2]
        c["router_traversals"] += route[3]
        c["payload_bytes"] += payload
        return route[0]

    def _route(self, key: tuple[int, int, int]) -> tuple[int, int, int, int]:
        """Compute and memoize the ``(latency, flits, flit_hops,
        router traversals)`` of one ``(src, dst, payload)`` transfer."""
        src, dst, payload = key
        cfg, topo = self.cfg, self.topo
        flits = cfg.flits(payload)
        route = self._routes[key] = (
            cfg.message_latency(src, dst, payload),
            flits,
            flits * topo.hops(src, dst),
            flits * topo.route_routers(src, dst),
        )
        return route

    # -- introspection -----------------------------------------------------
    def _wire(self):
        """Undelivered messages, in delivery order: the arguments of the
        queued deliveries (the only queued events that are a
        ``partial`` over one :class:`Message`)."""
        for cb in self.engine.queued():
            if type(cb) is partial and cb.args and type(cb.args[0]) is Message:
                yield cb.args[0]

    def in_flight(self) -> list[Message]:
        """Messages currently on the wire (sent, not yet delivered), in
        send order."""
        return sorted(self._wire(), key=lambda m: m.seq)

    def blocks_in_flight(self) -> set[int]:
        """Block addresses with at least one undelivered message."""
        return {m.block_addr for m in self._wire()}

    # -- checkpoint layer --------------------------------------------------
    def snapshot(self) -> dict:
        """Restorable transport state: the per-class message counters.

        Requires an empty wire — an undelivered :class:`Message`'s
        delivery event cannot round-trip, so checkpoints are only taken
        when nothing is in flight."""
        from repro.sim.engine import CheckpointUnsupported

        in_flight = self.in_flight()
        if in_flight:
            raise CheckpointUnsupported(
                f"{len(in_flight)} message(s) in flight; snapshot "
                "requires an empty network"
            )
        return {"class_counts": dict(self._class_counts)}

    def restore(self, blob: dict) -> None:
        """Adopt :meth:`snapshot` state (the route memo is pure cache)."""
        counts = blob["class_counts"]
        self._class_counts = {klass.value: counts[klass.value]
                              for klass in MessageClass}

    # -- reporting ---------------------------------------------------------
    def class_counts(self) -> dict[MessageClass, int]:
        """Per-class message counts (the Fig. 8 breakdown)."""
        return {klass: self._class_counts[klass.value]
                for klass in MessageClass}

    def finalize_stats(self) -> None:
        """Copy class counts into the stats tree for flattening."""
        for value, n in self._class_counts.items():
            setattr(self.stats, f"msgs_{value}", n)
