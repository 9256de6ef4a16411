"""Shared machinery of trusted servers (masters and the auditor).

Everything in Section 3 that is common to the whole trusted set lives
here:

* membership in the totally-ordered broadcast and the dispatch of
  delivered payloads (writes, exclusions);
* the :class:`~repro.core.view.TrustedView` every member holds: slave
  ownership, client auditors and exclusions, set by :meth:`enroll` and
  replaced only where a notice is delivered;
* the signed ``content_version`` state and bounded version history used
  to verify accusations against past versions;
* the single-server work queue that turns content-store cost units and
  crypto operations into simulated service time (so saturation and lag
  are observable, which experiments E4/E5 need).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable

from repro.broadcast.totalorder import BroadcastEnvelope, TotalOrderBroadcast
from repro.content.queries import ReadQuery, operation_from_wire
from repro.content.store import ContentStore, ReadOutcome
from repro.core.config import ProtocolConfig
from repro.core.history import History
from repro.core.messages import (
    BcastExcludeSlave,
    BcastSlaveList,
    BcastWrite,
    Pledge,
    VersionStamp,
)
from repro.core.view import TrustedView
from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import Signature, new_signer
from repro.metrics import MetricsRegistry
from repro.sim.network import Network, Node
from repro.sim.simulator import EventHandle, Simulator


class WorkQueue:
    """FIFO single-server queue converting work into simulated latency.

    ``reserve`` books ``service_time`` behind all previously queued work
    and says when it completes; ``submit`` schedules ``callback`` for
    then.  ``backlog`` exposes how far behind the server currently is,
    which is the auditor-lag metric.
    """

    def __init__(self, node: Node) -> None:
        self._node = node
        self._busy_until = 0.0
        self.total_busy = 0.0

    def reserve(self, service_time: float) -> float:
        """Queue ``service_time`` of work; return when it will be done."""
        if service_time < 0:
            raise ValueError(f"negative service time {service_time}")
        self._busy_until = (max(self._node.now, self._busy_until)
                            + service_time)
        self.total_busy += service_time
        return self._busy_until

    def submit(self, service_time: float, callback: Callable[..., None],
               *args: Any) -> None:
        done_at = self.reserve(service_time)
        self._node.after(done_at - self._node.now, callback, *args)

    def backlog(self) -> float:
        """Seconds of queued work not yet completed."""
        return max(0.0, self._busy_until - self._node.now)

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent busy (may exceed 1 if saturated)."""
        if elapsed <= 0:
            return 0.0
        return self.total_busy / elapsed


class TrustedServer(Node):
    """Base class for master servers and the auditor.

    Subclasses implement the ``deliver_*`` hooks, which the broadcast
    invokes in the same total order on every trusted server.
    """

    def __init__(self, node_id: str, simulator: Simulator, network: Network,
                 config: ProtocolConfig, store: ContentStore,
                 member_ids: list[str], metrics: MetricsRegistry) -> None:
        super().__init__(node_id, simulator, network)
        self.config = config
        self.metrics = metrics
        self.keys = KeyPair(node_id, new_signer(
            config.signer_scheme, rng=simulator.fork_rng(f"keys:{node_id}"),
            rsa_bits=config.rsa_bits), metrics=metrics)
        self.store = store
        self.version = 0
        #: Every version committed so far: ops, commit times and the
        #: ``version_history_depth`` newest snapshots.
        self.history = History(store, config.version_history_depth)
        #: Delivered writes waiting for their due time, in delivery
        #: order: (due_at, origin, payload).  A queue drained by one
        #: timer, not a timer per write: a crash loses the timer, never
        #: the queue.
        self._apply_queue: deque[tuple[float, str, BcastWrite]] = deque()
        self._drain_timer: EventHandle | None = None
        #: Every enrolled slave certificate, kept forever so historical
        #: pledge signatures stay verifiable after exclusions/takeovers.
        self._cert_archive: dict[str, Certificate] = {}
        self.work = WorkQueue(self)
        self.broadcast = TotalOrderBroadcast(
            self,
            members=member_ids,
            on_deliver=self._on_deliver,
            heartbeat_interval=config.broadcast_heartbeat_interval,
            suspect_after=config.broadcast_suspect_after,
            on_membership=self.on_membership,
        )
        #: Owners, auditors and exclusions: :meth:`enroll` sets it, and
        #: only a delivered notice replaces it.
        self.view = TrustedView(alive=tuple(self.broadcast.ranked_members))
        self.rng = simulator.fork_rng(f"server:{node_id}")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self.broadcast.start()

    def on_crash(self) -> None:
        self.broadcast.stop()

    def on_recover(self) -> None:
        self.broadcast.announce_recovery()
        # The drain timer died with the crash; the queue did not.  Writes
        # that fell due meanwhile commit now.
        self._drain(timer_gone=True)

    # -- message routing ----------------------------------------------------

    def on_message(self, src_id: str, message: Any) -> None:
        if isinstance(message, BroadcastEnvelope):
            self.broadcast.handle_message(src_id, message)
        else:
            self.handle_protocol_message(src_id, message)

    def handle_protocol_message(self, src_id: str, message: Any) -> None:
        """Role-specific traffic (clients, slaves).  Subclasses override."""
        raise NotImplementedError

    # -- broadcast delivery dispatch ---------------------------------------

    def _on_deliver(self, seq: int, origin: str, payload: Any) -> None:
        if isinstance(payload, BcastWrite):
            self.deliver_write(seq, origin, payload)
        elif isinstance(payload, BcastSlaveList):
            pass  # retired: slave ownership is enrolled at build time
        elif isinstance(payload, BcastExcludeSlave):
            if payload.slave_id not in self.view.excluded:
                self.view = self.view.exclude(payload.slave_id)
                self.deliver_exclusion(payload)
        else:
            raise TypeError(
                f"unexpected broadcast payload {type(payload).__name__}"
            )

    def deliver_write(self, seq: int, origin: str, payload: BcastWrite) -> None:
        raise NotImplementedError  # decide when it is due, then _defer

    # -- from delivery to version ------------------------------------------

    def _defer(self, due_at: float, origin: str,
               payload: BcastWrite) -> None:
        """Apply ``payload``, which ``origin`` broadcast, at ``due_at``,
        behind all delivered before it: in this call when it is due
        already, else off the drain timer."""
        self._apply_queue.append((due_at, origin, payload))
        self._drain()

    def _drain(self, timer_gone: bool = False) -> None:
        """Apply the queued writes whose time has come, in delivery order,
        and keep one timer armed for the next.  ``timer_gone``: the armed
        timer is the caller (it fired) or was cancelled by it."""
        if timer_gone:
            self._drain_timer = None
        # The head is held against the clock even when its own timer
        # fired: an event loop may fire a handle one clock resolution
        # early, and then this re-arms for the remainder.
        queue = self._apply_queue
        while queue and queue[0][0] <= self.now:
            _due_at, origin, payload = queue.popleft()
            self._apply_write(origin, payload)
        self._arm_drain()

    def _arm_drain(self) -> None:
        if self._apply_queue and self._drain_timer is None:
            self._drain_timer = self.after(
                max(0.0, self._apply_queue[0][0] - self.now),
                self._drain, True)

    def _apply_write(self, origin: str, payload: BcastWrite) -> None:
        """Role-specific commit of one due write (ends in ``commit_op``)."""
        raise NotImplementedError

    def find_slave_cert(self, slave_id: str) -> Certificate | None:
        """Locate a slave's certificate (archived forever), or None."""
        return self._cert_archive.get(slave_id)

    def deliver_exclusion(self, payload: BcastExcludeSlave) -> None:
        """A slave was proven malicious, and is out of the view now;
        subclasses react."""

    # -- the view (Sections 3.1, 3.4, 3.5) ----------------------------------

    def enroll(self, certs: Iterable[Certificate],
               auditor_ids: Iterable[str] = ()) -> None:
        """Build time: learn every slave certificate of the trusted set,
        and which members are auditors.  A slave's home is the master that
        issued its certificate."""
        certs = tuple(certs)
        self._cert_archive.update((cert.subject_id, cert) for cert in certs)
        self.view = self.view.enroll(
            ((c.issuer_id, c.subject_id) for c in certs), auditor_ids)

    def on_membership(self, member_id: str, up: bool) -> None:
        """A delivered notice took ``member_id`` out of the view or put
        it back, at every member, the subject too.  Subclasses extend."""
        self.view = (self.view.up if up else self.view.down)(member_id)

    # -- version state ----------------------------------------------------------

    def sign_stamp(self, then: Callable[[VersionStamp], None]) -> None:
        """Sign a stamp for the current version, timestamped now, then
        ``then(stamp)``: the one way a trusted server makes a stamp.

        The version and the timestamp are fixed here, so whatever the
        caller reads beside them belongs to this moment too.  The
        signature is made where :meth:`~repro.sim.network.Node.sign_batch`
        makes it: at once in the simulator, on the signing worker over
        sockets, first in first out, so stamps leave in the order they
        were asked for.  ``then`` runs in this life of the server only.
        """
        version, timestamp = self.version, self.now
        master_id = self.keys.owner_id
        payload = VersionStamp.payload(version, timestamp, master_id)

        def signed(signatures: list[Signature]) -> None:
            then(VersionStamp.signed(payload, version, timestamp, master_id,
                                     signatures[0]))
        self.sign_batch([payload], signed)

    def commit_op(self, op_wire: Any) -> None:
        """Apply a committed write locally and archive the snapshot."""
        self.store.apply_write(operation_from_wire(op_wire))
        self.version += 1
        self.history.commit(self.version, op_wire, self.store, self.now)

    def store_at(self, version: int) -> ContentStore | None:
        """Historical snapshot, or None if outside the retained window."""
        return self.history.store_at(version)

    def reexecute(self, pledge: Pledge) -> ReadOutcome | None:
        """What a trusted host answers for this pledge: its query run on
        the content as of its version.  None when that cannot be said --
        the version is outside the retained window, or the pledged
        "read" is not one."""
        snapshot = self.store_at(pledge.stamp.version)
        if snapshot is None:
            return None
        query = operation_from_wire(pledge.query_wire)
        if not isinstance(query, ReadQuery):
            return None
        return snapshot.execute_read(query)

    def execution_time(self, cost_units: float) -> float:
        """Simulated compute time for executing a query of given cost."""
        return cost_units * self.config.service_time_per_unit
