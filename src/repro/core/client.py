"""Clients: the read/write protocol from the consumer side.

Setup phase (Section 2): query the directory for master certificates,
verify them against the content public key (known a priori, e.g. embedded
in the content identifier), connect to one master, receive a slave
assignment (certified slave keys plus the auditor's address).  When an
auditor crashes or returns, that master re-sends the assignment with only
the auditor changed; a ready client takes it from that master alone.

Read protocol (Sections 3.2-3.4), per read:

1. send the query to the assigned slave(s) -- ``read_quorum`` of them in
   the Section 4 variant;
2. on each reply, rebuild the pledge from the client's own request, the
   hash of the result received and the stamp and signature the reply
   carries, and verify it (:func:`judge_reply`): the slave's signature on
   that pledge, the master's signature on the version stamp, and the
   stamp's age against ``max_latency`` (stale answers are dropped and
   retried);
3. with probability ``p`` double-check against the master: a hash
   mismatch at the same version is immediate discovery -- forward the
   incriminating pledge as an accusation, await reassignment, re-issue
   the read;
4. otherwise forward the pledge to the auditor *and only then* accept
   (Section 3.4: "clients accept read results only after they have
   forwarded the corresponding pledges to the auditor").  Forwarding is
   per scheduler tick, not per read: the pledge joins the client's audit
   outbox, which leaves as one ``AuditBatch`` at once when no other read
   is in flight and otherwise when the tick ends.

An operation is one attempt from ``submit_*`` to its verdict: it keeps
its request id, start time, retry count and span while it waits for the
setup phase, is re-sent or re-routed, and leaves ``_reads`` only through
``_finish_read`` or ``_fail_read`` (docs/PROTOCOL.md, "A read's life").

Security levels (Section 4): pass ``level=`` to
:meth:`Client.submit_read`; level probabilities come from
``config.security_levels`` and a level with probability 1.0 is executed
only on the trusted master ("execute only on trusted hosts").

Every accepted read is logged with its result hash and version
(:class:`~repro.core.accepted.AcceptedLog`), for rollback after an
exclusion and so the harness can classify correctness offline against
trusted history.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Literal

if TYPE_CHECKING:  # pragma: no cover - typing only (obs is optional)
    from repro.obs.spans import Span

from repro.content.queries import Operation, ReadQuery, WriteOp
from repro.core.accepted import AcceptedLog, AcceptedRead
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    Accusation,
    AuditBatch,
    ClientHello,
    DirectoryListing,
    DirectoryLookup,
    DoubleCheckReply,
    DoubleCheckRequest,
    ExclusionNotice,
    Pledge,
    ReadReply,
    ReadRequest,
    SetupFailed,
    SlaveAssignment,
    VersionStamp,
    WriteReply,
    WriteRequest,
)
from repro.crypto.certificates import Certificate, CertificateError
from repro.crypto.hashing import (
    canonical_bytes,
    constant_time_equals,
    sha1_hex,
)
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import PublicKey, key_fingerprint, new_signer
# Unused here: bound only because ``benchmarks/harness/tracing.py``
# patches ``repro.core.client.verify_many`` by name; goes with ROADMAP
# item 4's benchmark PR.
from repro.crypto.signatures import verify_many  # noqa: F401
from repro.metrics import MetricsRegistry
from repro.sim.network import Network, Node
from repro.sim.simulator import EventHandle, Simulator

#: :func:`judge_reply`'s answers; ``read_reply_<verdict>`` counts each.
Verdict = Literal["ok", "out_of_sync", "bad_signature", "bad_stamp", "stale"]

#: Where a read is in its life (docs/PROTOCOL.md, "A read's life").
ReadState = Literal["awaiting_setup", "waiting_slaves", "master_read",
                    "double_checking", "await_reassign", "done"]


def master_preference(client_id: str) -> int:
    """The client's stable, hash-spread master index, modelling
    "selects one master (the closest one for example)": it first homes
    to ``sorted(masters)[master_preference(id) % len(masters)]`` and
    advances the index when a master stops answering."""
    return int(sha1_hex(client_id)[:4], 16)


# -- the decision: pure functions over values (docs/PROTOCOL.md R1-R6) ---

def is_fresh(stamp: VersionStamp, now: float, max_latency: float) -> bool:
    """R5: "the client makes sure the time-stamp is not older than
    max_latency."  Asked again, alone, of a read that lingered."""
    return now - stamp.timestamp < max_latency


def rebuild_pledge(reply: ReadReply, slave_id: str, request_id: str,
                   query_wire: Any) -> Pledge:
    """The pledge ``slave_id`` signed if ``reply`` answers this client's
    request ``request_id`` for ``query_wire``: "a copy of the request,
    the secure hash (SHA-1) of the result, and the latest time-stamped
    content_version" (Section 3.2).  Of ``reply.pledge`` only the stamp
    and the signature are read; everything else is the client's own."""
    seal = reply.pledge
    assert seal is not None
    return Pledge(query_wire=query_wire, result_hash=sha1_hex(reply.result),
                  stamp=seal.stamp, slave_id=slave_id, request_id=request_id,
                  signature=seal.signature)


def judge_reply(reply: ReadReply, slave_id: str, request_id: str,
                query_wire: Any, slave_key: PublicKey | None,
                master_key_of: Callable[[str], PublicKey | None],
                verifier: KeyPair, now: float,
                max_latency: float) -> tuple[Verdict, Pledge | None]:
    """R1, R4 and R5, in order, for the reply ``slave_id`` gave to
    ``request_id`` for ``query_wire``; with the verdict, the pledge
    rebuilt from the client's request (None for an out-of-sync refusal).
    ``slave_key`` and ``master_key_of(master_id)`` are certified keys,
    None where the client holds no certificate."""
    # R1. Sync: a slave behind on keep-alives refuses instead.
    if not reply.in_sync or reply.pledge is None:
        return "out_of_sync", None
    # R2 (binding) and R3 (integrity) are this rebuild: the query and
    # request are the client's, the hash is of the result it received,
    # so a slave that signed another query, request, result or name --
    # answering query A with a valid pledge for query B, which an audit
    # of B would pass -- fails R4.
    pledge = rebuild_pledge(reply, slave_id, request_id, query_wire)
    # R4. Slave signature over the pledge, then the master's signature
    #    over the version stamp.
    if slave_key is None or not pledge.verify(verifier, slave_key):
        return "bad_signature", pledge
    master_key = master_key_of(pledge.stamp.master_id)
    if master_key is None or not pledge.stamp.verify(verifier, master_key):
        return "bad_stamp", pledge
    if not is_fresh(pledge.stamp, now, max_latency):  # R5
        return "stale", pledge
    return "ok", pledge


def pledges_agree(pledges: Iterable[Pledge]) -> bool:
    """R6: every slave of the quorum pledged the same result hash at the
    same version."""
    first, *rest = pledges
    return all(constant_time_equals(pledge.result_hash, first.result_hash)
               and pledge.stamp.version == first.stamp.version
               for pledge in rest)


def compare_with_master(
        pledge: Pledge, trusted_hash: str,
        trusted_version: int) -> Literal["match", "mismatch", "skew"]:
    """A pledge against the master's double-check answer.  A different
    hash proves a lie only at the master's own version: otherwise the
    master committed a write in between (skew)."""
    if constant_time_equals(pledge.result_hash, trusted_hash):
        return "match"
    if pledge.stamp.version == trusted_version:
        return "mismatch"
    return "skew"


@dataclass
class _ReadAttempt:
    #: The ``n`` of ``request_id`` ``<client>:r<n>``.
    number: int
    request_id: str
    query_wire: Any
    probability: float
    callback: Callable[[dict], None] | None
    started_at: float
    quorum: int = 0
    #: Re-sends over the read's whole life (stale answers and time-outs).
    retries: int = 0
    dc_retries: int = 0
    state: ReadState = "awaiting_setup"
    replies: dict[str, ReadReply] = field(default_factory=dict)
    #: The replies' pledges as the client rebuilt and verified them; from
    #: here on *the* pledges -- compared, audited, used as evidence.
    pledges: dict[str, Pledge] = field(default_factory=dict)
    #: The attempt's one wake-up; whatever moves the attempt on cancels it.
    timer: EventHandle | None = None
    #: Root tracing span (None when tracing is off or unsampled).
    span: "Span | None" = None
    #: Open double-check child span, ended on reply/timeout.
    dc_span: "Span | None" = None


@dataclass
class _WriteAttempt:
    request_id: str
    op_wire: Any
    callback: Callable[[dict], None] | None
    started_at: float
    retries: int = 0
    #: The master it was last sent to; None while held for setup (no
    #: master to send it to until setup finishes).
    sent_to: str | None = None
    timer: EventHandle | None = None
    #: Root tracing span (None when tracing is off or unsampled).
    span: "Span | None" = None


class Client(Node):
    """One data consumer."""

    def __init__(self, node_id: str, simulator: Simulator, network: Network,
                 config: ProtocolConfig, directory_id: str,
                 owner_public_key: PublicKey, metrics: MetricsRegistry,
                 double_check_override: float | None = None,
                 max_latency_override: float | None = None,
                 lookup_fingerprint: str | None = None) -> None:
        super().__init__(node_id, simulator, network)
        self.config = config
        self.metrics = metrics
        self.directory_id = directory_id
        self.owner_public_key = owner_public_key
        #: Directory index queried during setup.  Defaults to the
        #: content-key fingerprint; sharded clients pass their shard's
        #: derived fingerprint (certificates under it are still signed
        #: with the content key, so verification is unchanged).
        self.lookup_fingerprint = (lookup_fingerprint
                                   if lookup_fingerprint is not None
                                   else key_fingerprint(owner_public_key))
        #: Hook for envelope-level extensions (the shard router): called
        #: with unrecognised messages; returning True consumes them.
        self.on_unhandled: Callable[[str, Any], bool] | None = None
        self.keys = KeyPair(node_id, new_signer(
            "hmac", rng=simulator.fork_rng(f"keys:{node_id}")),
            metrics=metrics)
        self.rng = simulator.fork_rng(f"client:{node_id}")
        #: "Greedy" clients override the honest probability (Section 3.3);
        #: slow clients may relax their own freshness bound (Section 3.2).
        self.double_check_override = double_check_override
        self.max_latency = (max_latency_override
                            if max_latency_override is not None
                            else config.effective_client_max_latency())

        self.master_certs: dict[str, Certificate] = {}
        self.master_id: str | None = None
        #: Where writes go: the certified master that answered the last
        #: committed write -- the one that orders them -- else
        #: ``master_id``.  Setup forgets it.
        self._write_master: str | None = None
        self.slave_certs: dict[str, Certificate] = {}
        self.assigned_slaves: tuple[str, ...] = ()
        self.auditor_id: str = ""
        self.ready = False
        self._setup_in_progress = False
        self._master_preference = master_preference(node_id)
        self._request_counter = itertools.count()
        #: Every operation between its submit and its verdict.
        self._reads: dict[str, _ReadAttempt] = {}
        self._writes: dict[str, _WriteAttempt] = {}
        self.accepted_log = AcceptedLog(node_id)
        #: Accepted reads later implicated by an exclusion (Section 3.5's
        #: delayed discovery: "the harm may be undone, by rolling back
        #: the client to the state before that particular read").
        self.tainted_reads: list[AcceptedRead] = []
        #: :attr:`accepted_log` row of every record in :attr:`tainted_reads`.
        self._tainted_rows: set[int] = set()
        #: Application rollback hook, invoked once per tainted read.
        self.rollback_handler: Callable[[AcceptedRead], None] | None = None
        #: Pledges of reads accepted this tick, not yet forwarded to the
        #: auditor.  See :meth:`_flush_audit`.
        self._audit_outbox: list[Pledge] = []

    # -- lifecycle / setup phase (Section 2) -----------------------------

    def start(self) -> None:
        self._begin_setup()

    def crash(self) -> None:
        # The reads behind the outbox are already accepted; their
        # pledges count as forwarded (the end-of-tick flush would die
        # with the crash).
        self._flush_audit()
        super().crash()

    def on_recover(self) -> None:
        # Every operation in flight is held here; its time-out died with
        # the crash.  Sent again, or (waiting for setup) re-armed.
        if self._setup_in_progress:
            self._setup_in_progress = False
            self._begin_setup()
        for read in list(self._reads.values()):
            self._route(read)
        for write in list(self._writes.values()):
            self._send_write(write)

    def _begin_setup(self) -> None:
        if self._setup_in_progress:
            return
        self._setup_in_progress = True
        self.ready = False
        self._write_master = None
        self.metrics.incr("client_setups")
        self.send(self.directory_id, DirectoryLookup(
            content_key_fingerprint=self.lookup_fingerprint))
        self.after(self.config.request_timeout, self._setup_timeout)

    def _setup_timeout(self) -> None:
        if self.ready or not self._setup_in_progress:
            return
        self._setup_in_progress = False
        self._master_preference += 1  # try a different master next time
        self.metrics.incr("client_setup_timeouts")
        self._begin_setup()

    def _handle_listing(self, listing: DirectoryListing) -> None:
        if self.ready:
            return
        verified: list[Certificate] = []
        for cert in listing.certificates:
            try:
                cert.verify(self.keys, self.owner_public_key)
            except CertificateError:
                self.metrics.incr("client_bad_master_certs")
                continue
            verified.append(cert)
        if not verified:
            self._setup_in_progress = False
            self.metrics.incr("client_setup_failed")
            return
        self.master_certs = {c.subject_id: c for c in verified}
        ordered = sorted(self.master_certs)
        choice = ordered[self._master_preference % len(ordered)]
        self.master_id = choice
        self.send(choice, ClientHello())

    def _verified_slaves(
            self, certificates: tuple[Certificate, ...]) -> tuple[str, ...]:
        """Adopt every slave certificate a master we know vouches for;
        the rest -- unknown issuer or bad signature -- are counted."""
        slaves: list[str] = []
        for cert in certificates:
            issuer = self.master_certs.get(cert.issuer_id)
            try:
                if issuer is None:
                    raise CertificateError("unknown issuer")
                cert.verify(self.keys, issuer.subject_public_key)
            except CertificateError:
                self.metrics.incr("client_bad_slave_certs")
                continue
            self.slave_certs[cert.subject_id] = cert
            slaves.append(cert.subject_id)
        return tuple(slaves)

    def _handle_assignment(self, assignment: SlaveAssignment) -> None:
        slaves = self._verified_slaves(assignment.slave_certificates)
        if not slaves:
            self._setup_in_progress = False
            self.metrics.incr("client_setup_failed")
            return
        self.assigned_slaves = slaves
        self.auditor_id = assignment.auditor_id
        self.ready = True
        self._setup_in_progress = False
        self.metrics.incr("client_setup_completed")
        # Everything that waited for this goes out.
        for read in list(self._reads.values()):
            if read.state == "awaiting_setup":
                self._in_span(read.span, self._route, read)
        for write in list(self._writes.values()):
            if write.sent_to is None:
                self._in_span(write.span, self._send_write, write)

    def _master_key(self, master_id: str) -> PublicKey | None:
        cert = self.master_certs.get(master_id)
        return None if cert is None else cert.subject_public_key

    # -- public operation API ---------------------------------------------

    def submit(self, op: Operation, level: str | None = None,
               callback: Callable[[dict], None] | None = None) -> None:
        """Submit a read query or write operation."""
        if isinstance(op, ReadQuery):
            self.submit_read(op, level=level, callback=callback)
        elif isinstance(op, WriteOp):
            self.submit_write(op, callback=callback)
        else:
            raise TypeError(f"cannot submit {type(op).__name__}")

    def submit_read(self, query: ReadQuery, level: str | None = None,
                    callback: Callable[[dict], None] | None = None) -> None:
        number = next(self._request_counter)
        request_id = f"{self.node_id}:r{number}"
        attempt = _ReadAttempt(
            number=number,
            request_id=request_id,
            query_wire=query.to_wire(),
            probability=self._double_check_probability(level),
            callback=callback,
            started_at=self.now,
        )
        self._reads[request_id] = attempt
        self.metrics.incr("reads_submitted")
        obs = self.simulator.obs
        if obs is not None:
            attempt.span = obs.trace(self.node_id, "client.read",
                                     request_id=request_id,
                                     level=level or "default")
        self._in_span(attempt.span, self._route, attempt)

    def submit_write(self, op: WriteOp,
                     callback: Callable[[dict], None] | None = None) -> None:
        request_id = f"{self.node_id}:w{next(self._request_counter)}"
        attempt = _WriteAttempt(request_id=request_id, op_wire=op.to_wire(),
                                callback=callback, started_at=self.now)
        self._writes[request_id] = attempt
        self.metrics.incr("writes_submitted")
        obs = self.simulator.obs
        if obs is not None:
            attempt.span = obs.trace(self.node_id, "client.write",
                                     request_id=request_id)
        self._in_span(attempt.span, self._send_write, attempt)

    def _in_span(self, span: "Span | None", send: Callable[[Any], None],
                 attempt: _ReadAttempt | _WriteAttempt) -> None:
        """Send under the operation's own trace context, if it has one."""
        obs = self.simulator.obs
        if obs is not None and span is not None:
            with obs.activation(span):
                send(attempt)
        else:
            send(attempt)

    def _double_check_probability(self, level: str | None) -> float:
        if self.double_check_override is not None:
            return self.double_check_override
        if level is None:
            return self.config.double_check_probability
        try:
            return self.config.security_levels[level]
        except KeyError:
            raise ValueError(
                f"unknown security level {level!r}; configured: "
                f"{sorted(self.config.security_levels)}"
            ) from None

    # -- read path ------------------------------------------------------------

    def _route(self, attempt: _ReadAttempt) -> None:
        """Start the read (again) from the top: held while the client has
        no assignment, else sent where its level says -- under one
        ``request_timeout`` deadline either way."""
        _cancel(attempt.timer)
        if not self.ready:
            attempt.state = "awaiting_setup"
            self._begin_setup()
        elif attempt.probability >= 1.0 and self.double_check_override is None:
            # Probability 1.0 *by security level* means "execute only on
            # trusted hosts" (Section 4).  A greedy client's override of
            # 1.0 still reads from its slave, then over-checks (3.3).
            attempt.state = "master_read"
            self.metrics.incr("sensitive_reads")
            assert self.master_id is not None
            self.send(self.master_id, DoubleCheckRequest(
                request_id=attempt.request_id,
                query_wire=attempt.query_wire, want_result=True))
        else:
            attempt.state = "waiting_slaves"
            attempt.replies.clear()
            request = ReadRequest(client_id=self.node_id,
                                  request_id=attempt.request_id,
                                  query_wire=attempt.query_wire)
            for slave in self.assigned_slaves:
                self.send(slave, request)
            attempt.quorum = len(self.assigned_slaves)
        attempt.timer = self.after(self.config.request_timeout,
                                   self._read_timeout, attempt)

    def _handle_read_reply(self, slave_id: str, reply: ReadReply) -> None:
        attempt = self._reads.get(reply.request_id)
        if attempt is None or attempt.state != "waiting_slaves":
            return
        if slave_id in attempt.replies:
            return
        if slave_id not in self.assigned_slaves:
            # Sent before this client was moved off the slave (Section
            # 3.5): an excluded slave's word is worth nothing, however
            # late it arrives.  The re-issued attempt waits for the
            # replacement's answer.
            self.metrics.incr("read_replies_unassigned")
            return
        attempt.replies[slave_id] = reply
        if len(attempt.replies) == attempt.quorum:
            self._evaluate_replies(attempt)

    def _evaluate_replies(self, attempt: _ReadAttempt) -> None:
        _cancel(attempt.timer)
        obs = self.simulator.obs
        if obs is not None:
            with obs.child_span(self.node_id, "read.verify",
                                request_id=attempt.request_id,
                                quorum=attempt.quorum) as vspan:
                valid = self._verify_replies(attempt)
                if vspan is not None:
                    vspan.attrs["valid"] = len(valid)
        else:
            valid = self._verify_replies(attempt)
        attempt.pledges = valid
        if len(valid) < attempt.quorum:
            # At least one reply was stale / out-of-sync / malformed: the
            # paper's answer is drop and retry (Section 3.2).
            self._escalate(attempt, backoff=True)
        elif attempt.quorum > 1 and not pledges_agree(valid.values()):
            # Quorum variant: disagreement forces a double-check --
            # "if not all answers match, the client automatically
            # double-checks, since at least one of the slaves has to be
            # malicious" (Section 4).
            self.metrics.incr("quorum_disagreements")
            self._start_double_check(attempt, forced=True)
        elif self.rng.random() < attempt.probability:
            self._start_double_check(attempt, forced=False)
        else:
            self._accept_via_auditor(attempt)

    def _verify_replies(self, attempt: _ReadAttempt) -> dict[str, Pledge]:
        """The rebuilt pledges of the replies that pass R1-R5, by slave,
        each verdict counted."""
        valid: dict[str, Pledge] = {}
        for slave_id, reply in attempt.replies.items():
            cert = self.slave_certs.get(slave_id)
            verdict, pledge = judge_reply(
                reply, slave_id, attempt.request_id, attempt.query_wire,
                None if cert is None else cert.subject_public_key,
                self._master_key, self.keys, self.now, self.max_latency)
            self.metrics.incr(f"read_reply_{verdict}")
            if verdict == "ok":
                assert pledge is not None
                valid[slave_id] = pledge
        return valid

    def _start_double_check(self, attempt: _ReadAttempt,
                            forced: bool) -> None:
        attempt.state = "double_checking"
        self.metrics.incr("double_checks_sent")
        if forced:
            self.metrics.incr("double_checks_forced")
        obs = self.simulator.obs
        if obs is not None and attempt.span is not None:
            attempt.dc_span = obs.begin(
                self.node_id, "read.double_check",
                parent=obs.current or attempt.span, forced=forced)
        assert self.master_id is not None
        self.send(self.master_id, DoubleCheckRequest(
            request_id=attempt.request_id, query_wire=attempt.query_wire))
        attempt.timer = self.after(self.config.request_timeout,
                                   self._double_check_timeout, attempt)

    def _handle_double_check_reply(self, reply: DoubleCheckReply) -> None:
        attempt = self._reads.get(reply.request_id)
        if attempt is None:
            return
        if attempt.state == "master_read":
            # Sensitive read executed only on the trusted master.
            _cancel(attempt.timer)
            self._finish_read(attempt, result=reply.result,
                              result_hash=reply.result_hash,
                              version=reply.version, double_checked=True,
                              slave_ids=(),
                              query=canonical_bytes(attempt.query_wire))
            return
        if attempt.state != "double_checking":
            return
        _cancel(attempt.timer)
        obs = self.simulator.obs
        if obs is not None and attempt.dc_span is not None:
            obs.end(attempt.dc_span, outcome="reply",
                    version=reply.version)
            attempt.dc_span = None
        matching: list[str] = []
        mismatching: list[Pledge] = []
        for slave_id, pledge in attempt.pledges.items():
            outcome = compare_with_master(pledge, reply.result_hash,
                                          reply.version)
            if outcome == "match":
                matching.append(slave_id)
            elif outcome == "mismatch":
                mismatching.append(pledge)
            else:
                self.metrics.incr("double_checks_inconclusive")
        if mismatching:
            # Caught red-handed (immediate discovery, Section 3.5).
            for pledge in mismatching:
                self.metrics.incr("immediate_detections")
                if obs is not None:
                    obs.event(self.node_id, "client.accuse",
                              slave=pledge.slave_id, discovery="immediate")
                assert self.master_id is not None
                self.send(self.master_id, Accusation(
                    pledge=pledge, discovery="immediate"))
            attempt.state = "await_reassign"
            # Re-issued once the master reassigns us (ExclusionNotice), or
            # after a timeout if the accusation was dismissed.
            attempt.timer = self.after(self.config.request_timeout,
                                       self._route, attempt)
            return
        if not matching:
            # Every slave answer was from a different version; retry.
            self._escalate(attempt, backoff=True)
            return
        if self._aged_while_held(attempt):
            return
        self.metrics.incr("double_checks_confirmed")
        self._accept_pledged(attempt, tuple(matching), double_checked=True)

    def _accept_via_auditor(self, attempt: _ReadAttempt) -> None:
        """Forward pledges to the auditor, then accept (Section 3.4)."""
        if self._aged_while_held(attempt):
            return
        slave_ids = tuple(attempt.pledges)
        if any(slave_id not in self.assigned_slaves
               for slave_id in slave_ids):
            # Held across a reassignment (parked behind timed-out
            # double-checks): never accept on an ex-slave's word.
            self.metrics.incr("read_replies_unassigned")
            self._route(attempt)
            return
        if self.auditor_id:
            armed = bool(self._audit_outbox)
            self._audit_outbox += attempt.pledges.values()
            if len(self._reads) == 1:
                # No other read in flight: nothing can join this batch.
                self._flush_audit()
            elif not armed:
                self.after(0.0, self._flush_audit)
        self._accept_pledged(attempt, slave_ids, double_checked=False)

    def _accept_pledged(self, attempt: _ReadAttempt,
                        slave_ids: tuple[str, ...],
                        double_checked: bool) -> None:
        """Accept the result the first of ``slave_ids`` served, as its
        rebuilt pledge describes it."""
        first = slave_ids[0]
        pledge = attempt.pledges[first]
        self._finish_read(attempt, result=attempt.replies[first].result,
                          result_hash=pledge.result_hash,
                          version=pledge.stamp.version,
                          double_checked=double_checked, slave_ids=slave_ids,
                          query=pledge.query_bytes())

    def _flush_audit(self) -> None:
        """Forward every pledge accepted since the last flush, as one
        message, to the auditor assigned now."""
        pledges = self._audit_outbox
        if pledges:
            self._audit_outbox = []
            self.send(self.auditor_id, AuditBatch(pledges=tuple(pledges)))

    def _finish_read(self, attempt: _ReadAttempt, result: Any,
                     result_hash: str, version: int, double_checked: bool,
                     slave_ids: tuple[str, ...], query: bytes) -> None:
        """Accept: log the read and answer the caller.  ``query`` is
        ``canonical_bytes(attempt.query_wire)``, which the log interns
        the query by."""
        del self._reads[attempt.request_id]
        attempt.state = "done"
        latency = self.now - attempt.started_at
        self.metrics.incr("reads_accepted")
        self.metrics.observe("read_latency", latency)
        obs = self.simulator.obs
        if obs is not None:
            obs.end(attempt.span, status="accepted", version=version,
                    double_checked=double_checked,
                    retries=attempt.retries)
        self.accepted_log.add(attempt.number, query, attempt.query_wire,
                              result_hash, version, self.now,
                              double_checked, slave_ids)
        if attempt.callback is not None:
            attempt.callback({"status": "accepted", "result": result,
                              "latency": latency, "version": version,
                              "double_checked": double_checked})

    # -- retries / failures ------------------------------------------------------

    def _escalate(self, attempt: _ReadAttempt, backoff: bool) -> None:
        """The one retry ladder.  A stale or invalid answer (``backoff``)
        or a time-out costs one of the read's ``max_read_retries``
        re-sends; the last of them goes out after a fresh setup, and the
        failure after that fails the read."""
        self.metrics.incr("read_retries" if backoff else "read_timeouts")
        attempt.retries += 1
        if attempt.retries > self.config.max_read_retries:
            self._fail_read(attempt, reason=("retries exhausted" if backoff
                                             else "timeout"))
        elif attempt.retries == self.config.max_read_retries:
            # Penultimate attempt: assume our slave is broken (garbled
            # signatures) or died, maybe our master too; set up afresh.
            self.ready = False
            self.metrics.incr("reads_resetup")
            self._route(attempt)
        elif backoff:
            # Small backoff so a just-stale slave has time to resync.
            attempt.timer = self.after(self.config.keepalive_interval,
                                       self._route, attempt)
        else:
            self._route(attempt)

    def _aged_while_held(self, attempt: _ReadAttempt) -> bool:
        """R5 again, at acceptance time: a reply fresh when validated may
        have aged past ``max_latency`` while the read lingered (e.g. on a
        timed-out double-check); accepting it would breach the
        inconsistency window, so the read is retried (True)."""
        now, max_latency = self.now, self.max_latency
        for pledge in attempt.pledges.values():
            if not is_fresh(pledge.stamp, now, max_latency):
                self.metrics.incr("reads_stale_at_accept")
                self._escalate(attempt, backoff=True)
                return True
        return False

    def _read_timeout(self, attempt: _ReadAttempt) -> None:
        if attempt.state == "waiting_slaves" and attempt.replies:
            # Partial quorum: evaluate what arrived (missing slaves count
            # as invalid, forcing a retry unless quorum was 1 and answered).
            attempt.quorum = len(attempt.replies)
            self._evaluate_replies(attempt)
        else:  # nothing came: from a slave, the master, or the setup
            self._escalate(attempt, backoff=False)

    def _double_check_timeout(self, attempt: _ReadAttempt) -> None:
        attempt.dc_retries += 1
        self.metrics.incr("double_check_timeouts")
        obs = self.simulator.obs
        if obs is not None and attempt.dc_span is not None:
            obs.end(attempt.dc_span, outcome="timeout")
            attempt.dc_span = None
        if attempt.dc_retries <= 1:
            self._start_double_check(attempt, forced=False)
            return
        # The master is unresponsive (or throttling us as greedy).  Fall
        # back to the audit path rather than hanging the read forever.
        self._accept_via_auditor(attempt)

    def _fail_read(self, attempt: _ReadAttempt, reason: str) -> None:
        del self._reads[attempt.request_id]
        attempt.state = "done"
        self.metrics.incr("reads_failed")
        obs = self.simulator.obs
        if obs is not None:
            obs.end(attempt.span, status="failed", reason=reason,
                    retries=attempt.retries)
        if attempt.callback is not None:
            attempt.callback({"status": "failed", "reason": reason})

    # -- write path --------------------------------------------------------------

    def _send_write(self, attempt: _WriteAttempt) -> None:
        """Send the write to the master that answered our last one (else
        our own), or hold it until setup names one -- under one
        ``3 * request_timeout`` deadline either way."""
        _cancel(attempt.timer)
        if not self.ready:
            attempt.sent_to = None
            self._begin_setup()
        else:
            attempt.sent_to = self._write_master or self.master_id
            assert attempt.sent_to is not None
            self.send(attempt.sent_to, WriteRequest(
                request_id=attempt.request_id, op_wire=attempt.op_wire))
        attempt.timer = self.after(self.config.request_timeout * 3,
                                   self._write_timeout, attempt)

    def _handle_write_reply(self, master_id: str, reply: WriteReply) -> None:
        """The first reply decides; a second one (the origin's, after the
        orderer's) finds no attempt and is dropped."""
        attempt = self._writes.pop(reply.request_id, None)
        if attempt is None:
            return
        _cancel(attempt.timer)
        latency = self.now - attempt.started_at
        if reply.committed:
            if master_id in self.master_certs:
                self._write_master = master_id
            self.metrics.incr("writes_committed")
            self.metrics.observe("write_latency", latency)
        else:
            self.metrics.incr("writes_rejected")
        obs = self.simulator.obs
        if obs is not None:
            obs.end(attempt.span,
                    status="committed" if reply.committed else "rejected",
                    version=reply.version, retries=attempt.retries)
        if attempt.callback is not None:
            attempt.callback({"status": "committed" if reply.committed
                              else "rejected",
                              "version": reply.version,
                              "latency": latency,
                              "reason": reply.reason})

    def _write_timeout(self, attempt: _WriteAttempt) -> None:
        attempt.retries += 1
        self.metrics.incr("write_timeouts")
        if attempt.retries > 2:
            del self._writes[attempt.request_id]
            self.metrics.incr("writes_failed")
            obs = self.simulator.obs
            if obs is not None:
                obs.end(attempt.span, status="failed", reason="timeout",
                        retries=attempt.retries)
            if attempt.callback is not None:
                attempt.callback({"status": "failed", "reason": "timeout"})
            return
        if attempt.sent_to is None:
            pass  # held for setup, which has a time-out of its own
        elif attempt.sent_to != self.master_id:
            # The master that answered our last write went quiet: our
            # own master takes this one, without a new setup.
            self._write_master = None
        else:
            # Our master may have crashed: redo setup against another.
            self.ready = False
            self._master_preference += 1
        # Same request id: the masters de-duplicate by ``(sender,
        # request_id)``, so a write that did commit is confirmed.
        self._send_write(attempt)

    # -- reassignment (Section 3.5) -----------------------------------------------

    def _handle_exclusion(self, src_id: str, notice: ExclusionNotice) -> None:
        self.metrics.incr("client_reassignments")
        excluded = notice.excluded_slave_id
        self.assigned_slaves = tuple(
            slave for slave in self.assigned_slaves if slave != excluded)
        # Any master may tell us a slave is out; only ours may move us:
        # one that lists us from an earlier setup samples its own slaves.
        if src_id == self.master_id:
            self._install_assignment(notice.replacement)
        # Delayed-discovery damage control: any read this client accepted
        # on the now-excluded slave's word alone is suspect.  Surface it
        # to the application for rollback.
        log = self.accepted_log
        for row in log.unchecked_rows_of(excluded):
            if row not in self._tainted_rows:
                self._tainted_rows.add(row)
                record = log[row]
                self.tainted_reads.append(record)
                self.metrics.incr("reads_tainted")
                if self.rollback_handler is not None:
                    self.rollback_handler(record)
        # Re-issue any read that was waiting on the excluded slave.
        for attempt in list(self._reads.values()):
            if attempt.state in ("await_reassign", "waiting_slaves"):
                self.metrics.incr("reads_reissued_after_exclusion")
                self._route(attempt)

    def rehome(self) -> None:
        """Drop the cached assignment and redo setup from the directory.

        The shard router calls this when the client's shard moved to a
        different master group (``WrongShard`` redirect or a new map
        epoch).  Reads in flight wait for the new assignment and go to
        the new home under their own request ids; writes already sent
        are left on their time-out path, which re-sends them to the new
        home's master.  Pledges not yet forwarded go
        to the old home's auditor: its slaves signed them.
        """
        self._flush_audit()
        self.ready = False
        self._setup_in_progress = False
        self.master_certs = {}
        self.slave_certs = {}
        self.assigned_slaves = ()
        self.master_id = None
        self.metrics.incr("client_rehomes")
        self._begin_setup()
        for attempt in self._reads.values():
            self._route(attempt)

    def _install_assignment(self, assignment: SlaveAssignment) -> None:
        slaves = self._verified_slaves(assignment.slave_certificates)
        if slaves:
            self.assigned_slaves = slaves
        if assignment.auditor_id:
            self.auditor_id = assignment.auditor_id

    # -- dispatch --------------------------------------------------------------------

    def on_message(self, src_id: str, message: Any) -> None:
        if isinstance(message, DirectoryListing):
            self._handle_listing(message)
        elif isinstance(message, SlaveAssignment):
            if not self.ready:
                self._handle_assignment(message)
            elif src_id == self.master_id:
                # A re-point (our auditor moved), not a setup.  Only the
                # master we set up with may send one: a master that still
                # lists us from an earlier setup must not move our slaves.
                self._install_assignment(message)
        elif isinstance(message, ReadReply):
            self._handle_read_reply(src_id, message)
        elif isinstance(message, DoubleCheckReply):
            self._handle_double_check_reply(message)
        elif isinstance(message, WriteReply):
            self._handle_write_reply(src_id, message)
        elif isinstance(message, ExclusionNotice):
            self._handle_exclusion(src_id, message)
        elif isinstance(message, SetupFailed):
            self._setup_in_progress = False
            self.metrics.incr("client_setup_failed")
        elif (self.on_unhandled is not None
                and self.on_unhandled(src_id, message)):
            pass
        else:
            raise TypeError(
                f"client {self.node_id} got unexpected "
                f"{type(message).__name__} from {src_id}"
            )


def _cancel(timer: EventHandle | None) -> None:
    if timer is not None:
        timer.cancel()
