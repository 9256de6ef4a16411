"""Slave servers: untrusted replicas that execute reads.

A slave (Section 2) holds a copy of the content but is "only marginally
trusted".  Honest behaviour, per Sections 3.1-3.2:

* apply lazy state updates from its master strictly in version order,
  requesting a resync when it detects a gap;
* refuse reads while its latest keep-alive stamp is older than
  ``max_latency`` ("if they behave correctly they should stop handling
  user requests until they are back in sync");
* for each read: execute the query, build a pledge containing the
  request, the SHA-1 of the result and the latest master-signed stamp,
  sign the pledge, and return the result with the pledge's
  :class:`~repro.core.messages.Seal` (stamp and signature: the rest of
  the pledge is the client's own request and the result it receives).

Byzantine behaviour is injected through an
:class:`~repro.core.adversary.AdversaryStrategy`: the strategy may corrupt
the *result* (the pledge then hashes the corrupted result -- a slave that
pledged one thing and served another would be trivially caught by the
client's own hash check), serve from stale state, or drop requests.  It
can never forge another principal's signature.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any

from repro.content.queries import ReadQuery, operation_from_wire
from repro.content.store import ContentStore
from repro.core.adversary import AdversaryStrategy, Honest, StaleServe
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    KeepAlive,
    Pledge,
    ReadReply,
    ReadRequest,
    ResyncRequest,
    Seal,
    SlaveSnapshot,
    SlaveUpdate,
    VersionStamp,
)
from repro.core.trusted import WorkQueue
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import PublicKey, Signature, new_signer
from repro.metrics import MetricsRegistry
from repro.sim.network import Network, Node
from repro.sim.simulator import Simulator, restore_context

#: ``(client, pledged wire, request id, result, stamp, trace context)``;
#: the context is ``None`` without obs or for an unsampled read.
_ParkedRead = tuple[str, Any, str, Any, VersionStamp, Any]


class SlaveServer(Node):
    """One untrusted replica."""

    def __init__(self, node_id: str, simulator: Simulator, network: Network,
                 config: ProtocolConfig, store: ContentStore,
                 master_certs: dict[str, Certificate],
                 metrics: MetricsRegistry,
                 strategy: AdversaryStrategy | None = None) -> None:
        super().__init__(node_id, simulator, network)
        self.config = config
        self.metrics = metrics
        self.keys = KeyPair(node_id, new_signer(
            config.signer_scheme, rng=simulator.fork_rng(f"keys:{node_id}"),
            rsa_bits=config.rsa_bits), metrics=metrics)
        self.store = store
        self.version = 0
        #: All certified master public keys (from the public directory);
        #: the slave accepts stamps from any trusted master, which is what
        #: makes crash takeover by a different master transparent.
        self.master_keys = {m: c.subject_public_key
                            for m, c in master_certs.items()}
        self.latest_stamp: VersionStamp | None = None
        self._pending_updates: dict[int, SlaveUpdate] = {}
        self.strategy = strategy or Honest()
        if isinstance(self.strategy, StaleServe):
            self.strategy.frozen_store = store.clone()
        self.work = WorkQueue(self)
        self.reads_served = 0
        self.reads_refused_stale = 0
        #: Reads whose work is done but not yet pledged.  The first one
        #: parked in a tick arms a same-tick flush, so every read
        #: finishing in one scheduler tick shares one batch signing.
        #: See :meth:`_flush_reads`.
        self._pending_reads: list[_ParkedRead] = []

    @property
    def public_key(self) -> PublicKey:
        return self.keys.public_key

    # -- message handling ---------------------------------------------------

    def on_message(self, src_id: str, message: Any) -> None:
        if isinstance(message, SlaveUpdate):
            self._handle_update(src_id, message)
        elif isinstance(message, SlaveSnapshot):
            self._handle_snapshot(src_id, message)
        elif isinstance(message, KeepAlive):
            self._handle_keepalive(src_id, message)
        elif isinstance(message, ReadRequest):
            self._handle_read(src_id, message)
        else:
            raise TypeError(
                f"slave {self.node_id} got unexpected "
                f"{type(message).__name__} from {src_id}"
            )

    # -- lazy state updates (Section 3.1) --------------------------------------

    def _handle_update(self, master_id: str, update: SlaveUpdate) -> None:
        if not self._stamp_ok(update.stamp):
            self.metrics.incr("slave_bad_stamps")
            return
        self._pending_updates[update.from_version] = update
        self._apply_ready_updates()
        # Version gap (reordered or lost update): ask the sender to resync.
        if self._pending_updates and min(self._pending_updates) > self.version:
            self.send(master_id, ResyncRequest(have_version=self.version))

    def _apply_ready_updates(self) -> None:
        obs = self.simulator.obs
        mangle = getattr(self.strategy, "mangle_write", None)
        while self.version in self._pending_updates:
            update = self._pending_updates.pop(self.version)
            if obs is not None:
                with obs.child_span(self.node_id, "slave.apply",
                                    from_version=update.from_version) as sp:
                    self._apply_update(update, mangle)
                    if sp is not None:
                        sp.attrs["version"] = self.version
            else:
                self._apply_update(update, mangle)
            self._adopt_stamp(update.stamp)
        # Drop superseded buffered updates.
        for key in [k for k in self._pending_updates if k < self.version]:
            del self._pending_updates[key]

    def _apply_update(self, update: SlaveUpdate, mangle: Any) -> None:
        for op_wire in update.ops_wire:
            op = operation_from_wire(op_wire)
            if mangle is not None:
                op = mangle(op)  # CorruptState adversary
            self.store.apply_write(op)
            self.version += 1

    def _handle_snapshot(self, master_id: str,
                         message: SlaveSnapshot) -> None:
        """Full state transfer: replace everything, adopt the new stamp."""
        if not self._stamp_ok(message.stamp):
            self.metrics.incr("slave_bad_stamps")
            return
        if message.stamp.version <= self.version:
            return  # stale snapshot (raced with an incremental resync)
        self.store = message.store.clone()
        self.version = message.stamp.version
        self.latest_stamp = message.stamp
        self._pending_updates.clear()
        self.metrics.incr("slave_snapshots_installed")
        if isinstance(self.strategy, StaleServe) \
                and self.strategy.frozen_store is None:
            self.strategy.frozen_store = self.store.clone()

    def _handle_keepalive(self, master_id: str, message: KeepAlive) -> None:
        if not self._stamp_ok(message.stamp):
            self.metrics.incr("slave_bad_stamps")
            return
        # Arrival timeline per slave: overload scenarios assert that
        # keep-alives never miss the Section 3.1 freshness window even
        # while a flash crowd is being shed (repro.qos's invariant).
        self.metrics.record(f"keepalive_rx@{self.node_id}", self.now,
                            float(message.stamp.version))
        if message.stamp.version > self.version:
            # We missed at least one update; resync from whoever signed.
            self.send(master_id, ResyncRequest(have_version=self.version))
            return
        if message.stamp.version == self.version:
            self._adopt_stamp(message.stamp)

    def _stamp_ok(self, stamp: VersionStamp) -> bool:
        master_key = self.master_keys.get(stamp.master_id)
        if master_key is None:
            return False
        return stamp.verify(self.keys, master_key)

    def _adopt_stamp(self, stamp: VersionStamp) -> None:
        if stamp.version != self.version:
            return
        # A stamp for a version we just reached replaces the last one
        # even when both were signed in the same instant (a recovered
        # master replaying missed commits).
        if (self.latest_stamp is None
                or self.latest_stamp.version != stamp.version
                or stamp.timestamp > self.latest_stamp.timestamp):
            self.latest_stamp = stamp

    def is_fresh(self) -> bool:
        """Can this slave honestly serve reads right now?

        "A slave can handle client requests only if the most recently
        received keep-alive packet is less than max_latency old."
        """
        return (self.latest_stamp is not None
                and self.latest_stamp.age(self.now) < self.config.max_latency)

    # -- read protocol (Section 3.2) ----------------------------------------------

    def _handle_read(self, client_id: str, message: ReadRequest) -> None:
        obs = self.simulator.obs
        if obs is None:
            self._serve_read(client_id, message)
            return
        with obs.child_span(self.node_id, "slave.read",
                            request_id=message.request_id) as span:
            self._serve_read(client_id, message)
            if span is not None:
                span.attrs["version"] = self.version

    def _serve_read(self, client_id: str, message: ReadRequest) -> None:
        query = operation_from_wire(message.query_wire)
        if not isinstance(query, ReadQuery):
            raise TypeError("read request payload must be a read query")
        if self.strategy.should_refuse(query, client_id):
            self.metrics.incr("slave_reads_dropped")
            return
        if not self.is_fresh():
            # Honest refusal: out of sync.  (A malicious slave could answer
            # anyway, but its stale stamp would fail the client's freshness
            # check, so lying here buys the adversary nothing.)
            self.reads_refused_stale += 1
            self.metrics.incr("slave_reads_refused_stale")
            self.send(client_id, ReadReply(request_id=message.request_id,
                                           result=None, pledge=None,
                                           in_sync=False))
            return
        # Answer-substitution attack: execute and pledge a decoy query
        # instead of the requested one (the pledge itself stays honest --
        # valid signature over a truthful result -- just for the wrong
        # query; the client rebuilds the pledge from the query it asked,
        # which that signature does not cover).
        pledged_wire = message.query_wire
        substitute = getattr(self.strategy, "substitute_query", None)
        if substitute is not None:
            decoy = substitute(query)
            if decoy is not None:
                query = decoy
                pledged_wire = decoy.to_wire()
                self.metrics.incr("slave_substituted_queries")
        outcome = self.store.execute_read(query)
        served_result = self.strategy.corrupt(query, outcome.result,
                                              self.version, client_id)
        if served_result != outcome.result:
            self.metrics.incr("slave_lies_served")
        assert self.latest_stamp is not None
        self.reads_served += 1
        self.metrics.incr("slave_reads_served")
        if self.config.simulate_service_times:
            service = (outcome.cost_units * self.config.service_time_per_unit
                       + self.config.hash_time + self.config.sign_time)
        else:
            service = 0.0
        obs = self.simulator.obs
        entry = (client_id, pledged_wire, message.request_id, served_result,
                 self.latest_stamp, None if obs is None else obs.current)
        # The read is parked when its own work completes: at once when
        # that costs no time, else after its place in the work queue --
        # so modeled replies leave one service time apart, and reads
        # finishing in the same tick are signed together.
        delay = self.work.reserve(service) - self.now
        if delay <= 0.0:
            self._park(entry)
        else:
            self.after(delay, self._park, entry)

    def _park(self, entry: _ParkedRead) -> None:
        self._pending_reads.append(entry)
        if len(self._pending_reads) == 1:
            self.after(0.0, self._flush_reads)

    def on_crash(self) -> None:
        # Answered-but-unsent replies die with the process (clients
        # re-issue on request_timeout).  The flush armed for them dies
        # with the crash, so an entry left here would keep every later
        # read from arming another.
        self._pending_reads.clear()

    def _maybe_garble(self, seal: Seal) -> Seal:
        garble = getattr(self.strategy, "garble_signature", None)
        if garble is not None and garble():
            # A malicious slave withholding its real signature: clients
            # will reject the reply, but there is nothing to incriminate.
            self.metrics.incr("slave_garbled_signatures")
            return dataclasses.replace(seal, signature=b"\x00garbage")
        return seal

    def _flush_reads(self) -> None:
        """Pledge and reply to every read parked this tick as one batch.

        The batch's pledge payloads (:meth:`Pledge.payloads`) go to
        :meth:`~repro.sim.network.Node.sign_batch`; payloads and
        signatures are byte-identical to one :meth:`Pledge.make` per
        read.  The replies leave from its continuation, in the batch's
        order, each carrying its pledge's seal: in the simulator at
        once, over sockets when the signatures are back -- and never
        after a crash of this slave, as an :meth:`after` timer would.
        Each reply is still its own protocol message, so per-message
        adversary and chaos behaviour is that of a slave answering one
        read at a time, and each is sent under the trace context of its
        own read.
        """
        pending, self._pending_reads = self._pending_reads, []
        if not pending:
            return
        payloads = Pledge.payloads(
            self.keys.owner_id,
            [(pledged_wire, sha1_hex(served_result), stamp, request_id)
             for _client, pledged_wire, request_id, served_result, stamp,
             _context in pending])
        if len(pending) > 1:
            self.metrics.incr("slave_read_batches")
        self.sign_batch(payloads, functools.partial(self._reply, pending))

    def _reply(self, pending: list[_ParkedRead],
               signatures: list[Signature]) -> None:
        """Send one signed batch's replies (:meth:`_flush_reads`)."""
        obs = self.simulator.obs
        for (client_id, _wire, request_id, served_result, stamp, context), \
                signature in zip(pending, signatures):
            seal = Seal(stamp=stamp, signature=signature)
            reply = ReadReply(request_id=request_id, result=served_result,
                              pledge=self._maybe_garble(seal))
            if obs is None:
                self.send(client_id, reply, 2048)
            else:
                # Not ``obs.activation``: an unsampled read (no context)
                # must not ride the context this flush was armed under.
                restore_context(obs, context, self.send,
                                (client_id, reply, 2048))
