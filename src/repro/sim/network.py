"""The message fabric: nodes, addressed delivery, loss and partitions.

Every server role in the system (owner-run directory, masters, slaves,
clients, the auditor) is a :class:`Node` registered with one
:class:`Network`.  Nodes communicate exclusively through
:meth:`Node.send`, which samples a latency from the network's model and
schedules :meth:`Node.on_message` on the receiver -- there are no
synchronous back doors, so protocol code cannot accidentally rely on
information that would not be available in a real deployment.

Security note: the paper's "secure connection" between a client and its
master/slave (Section 2) is modelled at the protocol layer (certificates
and signatures), not by encrypting simulated messages -- the paper states
data secrecy is out of scope.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.simulator import EventHandle, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.keys import KeyPair
    from repro.crypto.signatures import Signature


class Node:
    """Base class for every networked principal in the simulation."""

    #: This principal's own key pair; set by every role that signs.
    keys: "KeyPair"

    def __init__(self, node_id: str, simulator: Simulator,
                 network: "Network") -> None:
        self.node_id = node_id
        self.simulator = simulator
        self.network = network
        self.crashed = False
        #: Bumped by every crash: a timer fires only in the life that
        #: armed it.
        self._life = 0
        #: Periodic work declared through :meth:`every`.
        self._periodic: list[tuple[float, Callable[[], None]]] = []
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        network.register(self)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Hook called once when the deployment starts; override freely."""

    def crash(self) -> None:
        """Benign crash: stop sending/receiving until :meth:`recover`.

        Ends this life of the node: no timer armed so far will ever
        fire.  What must survive the crash is held on the node, where
        :meth:`on_recover` finds it; a timer is only a wake-up.
        """
        self.crashed = True
        self._life += 1
        self.on_crash()

    def recover(self) -> None:
        """Return to service after a benign crash: the role's
        :meth:`on_recover`, then every :meth:`every` round again."""
        self.crashed = False
        self.on_recover()
        for interval, callback in self._periodic:
            self._run_every(interval, callback)

    def on_crash(self) -> None:
        """Role-specific crash cleanup; override as needed."""

    def on_recover(self) -> None:
        """Role-specific recovery; override as needed."""

    # -- messaging -----------------------------------------------------

    def send(self, dst_id: str, message: Any, size_bytes: int = 256) -> None:
        """Send ``message`` to node ``dst_id`` over the simulated WAN."""
        if self.crashed:
            return
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self.network.transmit(self.node_id, dst_id, message)

    def on_message(self, src_id: str, message: Any) -> None:
        """Deliver an incoming message.  Subclasses must override."""
        raise NotImplementedError

    def after(self, delay: float, callback: Callable[..., None],
              *args: Any) -> EventHandle:
        """Schedule a local timer belonging to this life of the node: it
        fires neither while the node is down nor after it recovers."""
        life = self._life

        def guarded() -> None:
            if life == self._life and not self.crashed:
                callback(*args)
        return self.simulator.schedule(delay, guarded)

    def sign_batch(self, payloads: list[bytes],
                   then: Callable[[list["Signature"]], None]) -> None:
        """Sign ``payloads`` with this node's key, then call
        ``then(signatures)`` -- in this life of the node only, as
        :meth:`after` fires.

        The one way protocol code signs a batch: the simulator signs
        inline and calls ``then`` at once; a socket runtime may sign on
        another core and call it from a later loop callback.
        """
        life = self._life

        def guarded(signatures: list["Signature"]) -> None:
            if life == self._life and not self.crashed:
                then(signatures)
        self.simulator.sign_batch(self.keys, payloads, guarded)

    def every(self, interval: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` now and then every ``interval`` seconds.

        The one way to declare periodic work: the round stops at a crash
        and :meth:`recover` starts it again, as exactly one chain.
        """
        self._periodic.append((interval, callback))
        self._run_every(interval, callback)

    def _run_every(self, interval: float,
                   callback: Callable[[], None]) -> None:
        callback()
        self.after(interval, self._run_every, interval, callback)

    @property
    def now(self) -> float:
        return self.simulator.now

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.node_id}>"


class Network:
    """Connects nodes; applies latency, loss and partitions to messages."""

    def __init__(self, simulator: Simulator,
                 latency: LatencyModel | None = None,
                 loss_probability: float = 0.0) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        self.simulator = simulator
        self.latency = latency or ConstantLatency(0.01)
        self.loss_probability = loss_probability
        self._nodes: dict[str, Node] = {}
        self._partitions: set[frozenset[str]] = set()
        self._rng = simulator.fork_rng("network")
        self.messages_delivered = 0
        self.messages_dropped = 0

    def register(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    # -- partitions ------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Sever bidirectional connectivity between ``a`` and ``b``."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Restore connectivity between ``a`` and ``b``."""
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitions

    # -- transmission ----------------------------------------------------

    def transmit(self, src_id: str, dst_id: str, message: Any) -> None:
        """Schedule delivery of one message, or drop it."""
        if dst_id not in self._nodes:
            raise KeyError(f"unknown destination node {dst_id!r}")
        if self.is_partitioned(src_id, dst_id):
            self._drop(src_id, dst_id, message)
            return
        if self.loss_probability and self._rng.random() < self.loss_probability:
            self._drop(src_id, dst_id, message)
            return
        delay = self.latency.sample(src_id, dst_id, self._rng)
        self.simulator.schedule(delay, self._deliver, src_id, dst_id, message)

    def _drop(self, src_id: str, dst_id: str, message: Any) -> None:
        self.messages_dropped += 1

    def _deliver(self, src_id: str, dst_id: str, message: Any) -> None:
        node = self._nodes[dst_id]
        if node.crashed:
            self._drop(src_id, dst_id, message)
            return
        self.messages_delivered += 1
        node.messages_received += 1
        node.on_message(src_id, message)
