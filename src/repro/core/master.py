"""Master servers: the trusted core of the system.

A master (Section 2) is a trusted host holding a full copy of the content.
Masters jointly:

* order and execute every write through the totally-ordered broadcast,
  spacing commits at least ``max_latency`` apart (Section 3.1);
* lazily update their slave sets after commit, and keep slaves fresh with
  signed keep-alive stamps (Section 3.1);
* serve client double-check requests, throttling statistically greedy
  clients (Section 3.3);
* verify accusations (from clients or the auditor) against historical
  snapshots, and exclude proven-malicious slaves, reassigning their
  clients (Section 3.5);
* divide a crashed master's slave set among the survivors (Section 3.1)
  and hand it back when it returns.  Who owns which slave, which slaves
  are excluded and which auditor a client's pledges go to are reads of
  the :class:`~repro.core.view.TrustedView` every trusted server folds
  from its enrollment and the delivered notices, so no gossip of slave
  lists is needed and members that delivered the same slots agree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from functools import partial
from typing import Any

from repro.content.queries import ReadQuery, operation_from_wire
from repro.core.messages import (
    Accusation,
    BcastExcludeSlave,
    BcastWrite,
    ClientHello,
    DoubleCheckReply,
    DoubleCheckRequest,
    ExclusionNotice,
    KeepAlive,
    Pledge,
    ResyncRequest,
    SetupFailed,
    SlaveAssignment,
    SlaveSnapshot,
    SlaveUpdate,
    VersionStamp,
    WriteReply,
    WriteRequest,
)
from repro.core.trusted import TrustedServer
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import constant_time_equals, sha1_hex
from repro.crypto.signatures import PublicKey
from repro.qos.tokens import TokenBucket

#: Committed writes a slave may lag and still be resynced by the ops
#: themselves; a slave further behind receives a full state snapshot.
OPS_LOG_DEPTH = 1024


class MasterServer(TrustedServer):
    """One trusted master server."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # -- clients --------------------------------------------------------
        #: client -> the assignment last sent to it (quorum-sized).
        self.client_assignments: dict[str, SlaveAssignment] = {}
        #: Per-client double-check allowance (Section 3.3 greedy-client
        #: throttling; the bucket itself now lives in ``repro.qos``).
        self._buckets: dict[str, TokenBucket] = {}
        # -- writes -----------------------------------------------------------
        #: Admitted writes not yet broadcast: (sender, request).  The
        #: sender the ACL admitted is the writer from here to the reply.
        self._write_queue: deque[tuple[str, WriteRequest]] = deque()
        self._write_inflight = False
        self._next_commit_floor = 0.0
        #: (client_id, request_id) -> "queued" | "committed"; gives writes
        #: at-most-once semantics across client retries and re-setups
        #: (a retry may arrive at a different master, so commit-state is
        #: tracked on delivery, which every master sees identically).
        self._write_states: dict[tuple[str, str], str] = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        super().start()
        self.every(self.config.keepalive_interval, self._keepalive_round)

    def on_recover(self) -> None:
        super().on_recover()
        self._pump_writes()

    def register_slave(self, slave_id: str, address: str,
                       public_key: PublicKey) -> Certificate:
        """Owner-time registration: certify a slave, which makes this
        master its home once the trusted set is enrolled with the
        certificate (:meth:`TrustedServer.enroll`)."""
        return Certificate.issue(self.keys, slave_id, address, public_key,
                                 issued_at=self.now)

    @property
    def slaves(self) -> list[str]:
        """The non-excluded slaves the view gives this master."""
        return self.view.slaves_of(self.node_id)

    @property
    def excluded_slaves(self) -> frozenset[str]:
        """Every slave an exclusion was delivered for."""
        return self.view.excluded

    # -- protocol message handling ----------------------------------------------

    def handle_protocol_message(self, src_id: str, message: Any) -> None:
        if isinstance(message, ClientHello):
            self._handle_hello(src_id)
        elif isinstance(message, WriteRequest):
            self._handle_write_request(src_id, message)
        elif isinstance(message, DoubleCheckRequest):
            self._handle_double_check(src_id, message)
        elif isinstance(message, Accusation):
            self._handle_accusation(src_id, message)
        elif isinstance(message, ResyncRequest):
            self._handle_resync(src_id, message)
        else:
            raise TypeError(
                f"master {self.node_id} got unexpected "
                f"{type(message).__name__} from {src_id}"
            )

    # -- setup phase (Section 2) ------------------------------------------------

    def _handle_hello(self, client_id: str) -> None:
        assignment = self._make_assignment(client_id)
        if assignment is None:
            self.send(client_id, SetupFailed())
            return
        self.send(client_id, assignment)

    def _make_assignment(self, client_id: str) -> SlaveAssignment | None:
        """Pick ``read_quorum`` distinct slaves for a client.

        Selection is a uniform random sample of the master's usable
        slaves (the paper's "the one closest to the client for example"
        is only an example policy; random selection spreads load and, for
        the quorum variant, makes collusion statistics match the
        hypergeometric model of experiment E9).
        """
        usable, quorum = self.slaves, self.config.read_quorum
        if len(usable) >= quorum:
            picked = self.rng.sample(usable, quorum)
        else:
            # Not enough local slaves: borrow other masters' (still
            # certified; clients verify any master's signature).
            picked = [*usable, *(s for s in self.view.owners
                                 if s not in self.excluded_slaves
                                 and s not in usable)][:quorum]
            if len(picked) < quorum:
                return None
        assignment = SlaveAssignment(
            slave_certificates=tuple(self._cert_archive[s] for s in picked),
            auditor_id=self.view.auditor_for(client_id))
        self.client_assignments[client_id] = assignment
        return assignment

    # -- write protocol (Section 3.1) ------------------------------------------------

    def _handle_write_request(self, client_id: str,
                              message: WriteRequest) -> None:
        allowed = (self.config.writers_allowed is None
                   or client_id in self.config.writers_allowed)
        obs = self.simulator.obs
        if obs is not None and obs.current is not None:
            obs.event(self.node_id, "master.acl_check",
                      request_id=message.request_id, allowed=allowed)
        if not allowed:
            self.metrics.incr("writes_denied")
            self.send(client_id, WriteReply(
                request_id=message.request_id, committed=False,
                version=self.version, reason="access denied"))
            return
        state = self._write_states.get((client_id, message.request_id))
        if state == "committed":
            # Client retry after a lost reply: confirm, do not re-apply.
            self.metrics.incr("writes_duplicate_confirmed")
            self.send(client_id, WriteReply(
                request_id=message.request_id, committed=True,
                version=self.version))
            return
        if state == "queued":
            self.metrics.incr("writes_duplicate_ignored")
            return
        self._write_states[(client_id, message.request_id)] = "queued"
        self._write_queue.append((client_id, message))
        self._pump_writes()

    def _pump_writes(self) -> None:
        """Submit the next queued write, respecting ``max_latency`` spacing.

        "Two write operations cannot be, time-wise, closer than
        max_latency to each other" -- we hold back submission until the
        previous commit is at least ``max_latency`` old, and the commit
        path enforces the same floor against concurrent submissions from
        other masters.
        """
        if self._write_inflight or not self._write_queue:
            return
        earliest = self.history.times[self.version] + self.config.max_latency
        if self.version == 0:
            earliest = self.now  # nothing committed yet
        if self.now < earliest:
            self.after(earliest - self.now, self._pump_writes)
            return
        client_id, request = self._write_queue.popleft()
        self._write_inflight = True
        self.broadcast.broadcast(BcastWrite(
            client_id=client_id,
            request_id=request.request_id,
            op_wire=request.op_wire,
        ))

    def deliver_write(self, seq: int, origin: str, payload: BcastWrite) -> None:
        """Totally-ordered write delivery: defer to the spaced commit.

        Duplicate deliveries (a client resubmitting through a different
        master after a timeout) are detected here: every master sees the
        same delivery order, so all of them skip the same duplicates.
        """
        key = (payload.client_id, payload.request_id)
        if self._write_states.get(key) == "committed":
            if origin == self.node_id:
                self._write_inflight = False
                self.send(payload.client_id, WriteReply(
                    request_id=payload.request_id, committed=True,
                    version=self.version))
                self._pump_writes()
            return
        self._write_states[key] = "committed"
        if self.broadcast.is_live(seq):
            commit_at = max(self.now, self._next_commit_floor)
            self._next_commit_floor = commit_at + self.config.max_latency
        else:
            # Catch-up replay after a crash: the master set already spaced
            # these commits >= max_latency apart in global time when they
            # were first committed; a straggler replays them immediately,
            # otherwise it would stay (and serve trusted answers) minutes
            # behind the group.  Nor does a replay space the next live
            # write: the set committed it already, and a floor set from
            # the replay would hold that write a max_latency behind.
            commit_at = self.now
        self._defer(commit_at, origin, payload)

    def _apply_write(self, origin: str, payload: BcastWrite) -> None:
        obs = self.simulator.obs
        if obs is None:
            self._do_commit(origin, payload)
            return
        # Always recorded (sampled or not): the Section 3.4 audit-lag
        # check pairs every commit with the auditor's advance.
        with obs.span(self.node_id, "master.commit",
                      request_id=payload.request_id) as span:
            self._do_commit(origin, payload)
            span.attrs["version"] = self.version

    def _do_commit(self, origin: str, payload: BcastWrite) -> None:
        self.commit_op(payload.op_wire)
        self.metrics.incr(f"commits@{self.node_id}")
        # The slaves hear of the commit when its stamp is signed; the
        # client's answer below does not wait for the signature.
        self.sign_stamp(partial(self._update_slaves, self.version - 1,
                                (payload.op_wire,)))
        # The master that ordered the write answers too: it delivers in
        # the call that orders it, so its reply is the first one out.
        # The origin still answers, so a crashed sequencer never leaves
        # a write unanswered; the client drops whichever comes second.
        ours = origin == self.node_id
        if ours or self.broadcast.is_sequencer:
            self.send(payload.client_id, WriteReply(
                request_id=payload.request_id, committed=True,
                version=self.version))
        if ours:
            self._write_inflight = False
            self._pump_writes()

    def _update_slaves(self, from_version: int, ops_wire: tuple[Any, ...],
                       stamp: VersionStamp) -> None:
        update = SlaveUpdate(from_version=from_version, ops_wire=ops_wire,
                             stamp=stamp)
        for slave in self.slaves:
            self.send(slave, update, size_bytes=1024)

    def _keepalive_round(self) -> None:
        """Periodic signed stamps so slaves stay fresh between writes."""
        if not self.broadcast.is_caught_up():
            # A stale master must not certify freshness: a keep-alive
            # signed at an old version would let a slave serve outdated
            # state inside the max_latency window.  Stay silent until the
            # broadcast repair finishes; slaves simply see us as late.
            return
        self.sign_stamp(self._send_keepalives)

    def _send_keepalives(self, stamp: VersionStamp) -> None:
        self.metrics.incr(f"keepalives@{self.node_id}")
        # Send timeline per master: overload scenarios judge a slave's
        # arrival gap (``keepalive_rx@``) against the send gap.
        self.metrics.record(f"keepalive_tx@{self.node_id}", self.now, 1.0)
        # Auditors time their version advancement off keep-alives too.
        self._keepalive_to([*self.slaves, *self.view.auditors], stamp)

    def _keepalive_to(self, node_ids: list[str], stamp: VersionStamp) -> None:
        for node_id in node_ids:
            self.send(node_id, KeepAlive(stamp=stamp))

    def _handle_resync(self, slave_id: str, message: ResyncRequest) -> None:
        """Bring a lagging slave back in sync.

        Incremental when the op log still covers the slave's version; a
        full state snapshot otherwise (the slave was down longer than
        :data:`OPS_LOG_DEPTH` writes).
        """
        if not self.broadcast.is_caught_up():
            # Resyncing a slave onto stale state (with a stale-but-fresh
            # stamp) would reintroduce the recovered-master hazard.
            self.after(0.25, self._handle_resync, slave_id, message)
            return
        have = message.have_version
        if have >= self.version:
            return
        missing = self.history.ops_between(have, self.version,
                                           OPS_LOG_DEPTH)
        if missing is None:
            self.metrics.incr("slave_snapshots_sent")
            # Taken now, at the stamp's version, however late it leaves.
            store = self.store.snapshot()
            self.sign_stamp(lambda stamp: self.send(
                slave_id, SlaveSnapshot(store=store, stamp=stamp),
                size_bytes=64 * 1024))
            return
        self.sign_stamp(lambda stamp: self.send(slave_id, SlaveUpdate(
            from_version=have, ops_wire=missing, stamp=stamp),
            size_bytes=1024 * len(missing)))

    # -- double-checks (Section 3.3) ---------------------------------------------------

    def _handle_double_check(self, client_id: str,
                             message: DoubleCheckRequest) -> None:
        if not self.broadcast.is_caught_up():
            # Serving a trusted answer from stale state would defeat the
            # point of double-checking; defer until repaired.
            self.after(0.25, self._handle_double_check, client_id, message)
            return
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.config.greedy_allowance_rate,
                                 self.config.greedy_burst, self.now)
            self._buckets[client_id] = bucket
        if not bucket.try_consume(self.now):
            self.metrics.incr("double_checks_over_quota")
            if self.rng.random() < self.config.greedy_drop_fraction:
                self.metrics.incr("double_checks_dropped_greedy")
                return  # "simply ignoring" the greedy client's request
        self.metrics.incr("double_checks_served")
        obs = self.simulator.obs
        if obs is None:
            self._serve_double_check(client_id, message)
        else:
            with obs.child_span(self.node_id, "master.double_check",
                                request_id=message.request_id):
                self._serve_double_check(client_id, message)

    def _serve_double_check(self, client_id: str,
                            message: DoubleCheckRequest) -> None:
        query = operation_from_wire(message.query_wire)
        if not isinstance(query, ReadQuery):
            raise TypeError("double-check payload must be a read query")
        outcome = self.store.execute_read(query)
        if self.config.simulate_service_times:
            service = (self.execution_time(outcome.cost_units)
                       + self.config.hash_time)
        else:
            service = 0.0
        reply = DoubleCheckReply(
            request_id=message.request_id,
            result_hash=sha1_hex(outcome.result),
            version=self.version,
            result=outcome.result if message.want_result else None,
        )
        self.work.submit(service, self.send, client_id, reply)

    # -- corrective action (Section 3.5) -------------------------------------------------

    def _handle_accusation(self, src_id: str, message: Accusation) -> None:
        """Verify evidence; if the pledge is provably wrong, exclude."""
        pledge = message.pledge
        verdict = self.evaluate_pledge(pledge)
        self.metrics.incr(f"accusations_{verdict}")
        obs = self.simulator.obs
        if obs is not None:
            obs.event(self.node_id, "master.accusation",
                      slave=pledge.slave_id, verdict=verdict,
                      discovery=message.discovery)
        if verdict != "guilty":
            return
        self.broadcast.broadcast(BcastExcludeSlave(
            slave_id=pledge.slave_id, discovery=message.discovery))

    def evaluate_pledge(self, pledge: Pledge) -> str:
        """Classify a pledge: 'guilty', 'innocent' or 'unverifiable'.

        Guilty requires (a) a valid slave signature -- otherwise a client
        could frame an innocent slave (Section 3.3) -- and (b) a result
        hash that differs from the trusted re-execution at the pledged
        version.
        """
        cert = self.find_slave_cert(pledge.slave_id)
        if cert is None:
            return "unverifiable"
        if not pledge.verify(self.keys, cert.subject_public_key):
            return "forged"  # cannot frame without the slave's key
        outcome = self.reexecute(pledge)
        if outcome is None:
            return "unverifiable"
        if constant_time_equals(sha1_hex(outcome.result),
                                pledge.result_hash):
            return "innocent"
        return "guilty"

    def deliver_exclusion(self, payload: BcastExcludeSlave) -> None:
        obs = self.simulator.obs
        if obs is not None:
            obs.event(self.node_id, "master.exclusion",
                      slave=payload.slave_id,
                      discovery=payload.discovery)
        if self.view.owners.get(payload.slave_id) == self.node_id:
            # Count each exclusion once systemwide: at its owner, which
            # every member names alike at this stream point.
            self.metrics.incr("exclusions")
            self.metrics.incr(f"exclusions_{payload.discovery}")
        # Contact every client of ours assigned to the excluded slave,
        # whoever owns it -- a client set up on an adopter keeps the
        # slave after its home takes it back -- and move it to a
        # replacement (Section 3.5).
        for client_id, assigned in list(self.client_assignments.items()):
            if all(cert.subject_id != payload.slave_id
                   for cert in assigned.slave_certificates):
                continue
            replacement = self._make_assignment(client_id)
            if replacement is None:
                self.send(client_id, SetupFailed())
                continue
            self.send(client_id, ExclusionNotice(
                excluded_slave_id=payload.slave_id,
                replacement=replacement))
            self.metrics.incr("clients_reassigned")

    # -- crash takeover and hand-back (Section 3.1) ---------------------------

    def on_membership(self, member_id: str, up: bool) -> None:
        """A delivered notice moved ``member_id``.  First, each of our
        clients whose auditor the view now names differently is sent the
        assignment it holds, with only the auditor changed, so its reads
        stay auditable.  (Pledges in flight to a crashed auditor are lost
        -- the paper's statistical guarantee is unaffected because those
        reads were already accepted; coverage resumes with the next
        read.)  Then we adopt the slaves the view newly gives us: the
        survivors divide a crashed master's set, a recovered master takes
        its own back."""
        held = self.slaves
        super().on_membership(member_id, up)
        for client_id, assignment in self.client_assignments.items():
            auditor = self.view.auditor_for(client_id)
            if auditor != assignment.auditor_id:
                assignment = replace(assignment, auditor_id=auditor)
                self.client_assignments[client_id] = assignment
                self.send(client_id, assignment)
                self.metrics.incr("clients_auditor_failover")
        if member_id in self.view.auditors:
            self.metrics.incr("auditor_recovery_noticed" if up
                              else "auditor_crash_noticed")
            return
        if not up and member_id != self.node_id:
            self.metrics.incr("master_crash_noticed")
            # Timestamped so harnesses can measure detection latency (the
            # gap between injecting a crash and the survivors acting).
            self.metrics.record("master_crash_detections", self.now, 1.0)
            obs = self.simulator.obs
            if obs is not None:
                obs.event(self.node_id, "master.takeover",
                          crashed=member_id)
        gained = [slave for slave in self.slaves if slave not in held]
        if gained:
            self.metrics.incr("slaves_adopted", len(gained))
            if self.broadcast.is_caught_up():
                # An adopted slave hears our stamp now, notices the
                # version gap (if any) and resyncs from us; a master still
                # replaying signs nothing stale and reaches it at its
                # next round.
                self.sign_stamp(partial(self._keepalive_to, gained))
