"""The auditor: background re-execution of every pledged read.

Section 3.4.  The auditor is a trusted server that every member is told
of at build time; it has no slave set and serves no clients.  Clients forward
every accepted-but-not-double-checked pledge to it; the auditor re-executes
the pledged query against its own replica *at the pledged version* and
compares secure hashes.  A mismatch is delayed discovery: the auditor
sends the incriminating pledge to the slave's master, which excludes the
slave (Section 3.5).

The throughput advantages the paper enumerates are all modelled:

* **no signatures** -- auditing charges execution + hash time only, never
  ``sign_time`` (slaves pay ``sign_time`` per read);
* **no client replies** -- no response messages are sent;
* **query caching** -- re-executions are memoised per
  ``(version, request-hash)``, so popular queries cost one execution and
  then only a hash compare; a version's entries go when its snapshot
  leaves the retained history, so the cache answers for exactly the
  versions ``store_at`` can;
* **deliberate lag** -- the auditor executes a write only after
  ``max_latency + audit_grace`` has passed since the masters committed
  it, guaranteeing no client will still accept reads for the version it
  is finishing; peak-hour backlogs drain off-peak (experiment E5).

``audit_fraction < 1`` implements the paper's overload valve: "weaken the
security guarantees by verifying only a randomly chosen fraction of all
reads."

Because the audit has no deadline, it works a batch at a time: a client
forwards a tick's pledges as one ``AuditBatch``, a version advance
releases every pledge parked for it at once, and each batch is one
``_intake``, one ``_audit`` and one queued ``_finish_audit``.  The checks
themselves stay per pledge, and no entry can hold back or poison its
batch mates.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Sequence

from repro.core.messages import (
    Accusation,
    AuditBatch,
    AuditSubmission,
    BcastWrite,
    KeepAlive,
    Pledge,
)
from repro.core.trusted import TrustedServer
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import constant_time_equals, sha1_hex


#: One pledge awaiting audit, and when it arrived (for lag statistics).
_Entry = tuple[Pledge, float]

#: Seconds between two samples of the backlog timelines.
_BACKLOG_PROBE_INTERVAL = 1.0


class AuditorServer(TrustedServer):
    """One auditor of the trusted set."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Pledges whose version the auditor has not reached yet.
        self._parked: dict[int, deque[_Entry]] = {}
        #: version -> request_hash -> trusted result hash, for the
        #: versions the history retains (:meth:`_apply_write` trims it).
        self._cache: dict[int, dict[str, str]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.pledges_received = 0
        self.pledges_audited = 0
        self.pledges_skipped = 0
        self.detections = 0
        self._next_commit_floor = 0.0
        #: (client_id, request_id) of every write delivered so far.
        self._delivered_writes: set[tuple[str, str]] = set()

    def start(self) -> None:
        super().start()
        self.every(_BACKLOG_PROBE_INTERVAL, self._probe_backlog)

    # -- write lag (Section 3.4) ------------------------------------------

    def deliver_write(self, seq: int, origin: str, payload: BcastWrite) -> None:
        """Queue the write; apply only after the audit window closes.

        The auditor mirrors the masters' commit-spacing computation to
        estimate when they commit, then waits an extra
        ``max_latency + audit_grace`` before moving to that version --
        "the auditor can move to a new content version only after a
        sufficiently large time interval (more than max_latency) has
        elapsed since the rest of the trusted servers have moved to that
        same content version."

        A write a client resubmitted through a second master after a
        time-out is delivered twice; the masters skip the second
        delivery (``MasterServer.deliver_write``) and so must we.
        """
        key = (payload.client_id, payload.request_id)
        if key in self._delivered_writes:
            return
        self._delivered_writes.add(key)
        masters_commit_at = max(self.now, self._next_commit_floor)
        self._next_commit_floor = masters_commit_at + self.config.max_latency
        self._defer(masters_commit_at + self.config.max_latency
                    + self.config.audit_grace, origin, payload)

    def _apply_write(self, origin: str, payload: BcastWrite) -> None:
        self.commit_op(payload.op_wire)
        for version in [v for v in self._cache if self.store_at(v) is None]:
            del self._cache[version]
        self.metrics.incr("auditor_version_advances")
        obs = self.simulator.obs
        if obs is not None:
            # Always recorded: paired with master.commit spans by the
            # Section 3.4 audit-lag check.
            obs.event(self.node_id, "auditor.advance",
                      version=self.version)
        # Pledges parked for the now-reachable version become auditable,
        # as one batch: one timer however many were waiting.
        ready = self._parked.pop(self.version, None)
        if ready:
            self._audit(ready)

    # -- pledge intake ------------------------------------------------------------

    def handle_protocol_message(self, src_id: str, message: Any) -> None:
        if isinstance(message, AuditBatch):
            self._intake(message.pledges)
        elif isinstance(message, AuditSubmission):
            self._intake((message.pledge,))
        elif isinstance(message, KeepAlive):
            pass  # freshness signal only; the broadcast already orders writes
        else:
            raise TypeError(
                f"auditor got unexpected {type(message).__name__} "
                f"from {src_id}"
            )

    def _intake(self, pledges: Sequence[Pledge]) -> None:
        """Count and sample one forwarded batch; audit what is reachable
        now, park what is pledged at a version still ahead of us."""
        received = len(pledges)
        self.pledges_received += received
        self.metrics.incr("pledges_forwarded", received)
        fraction = self.config.audit_fraction
        if fraction < 1.0:
            # The overload valve samples per pledge, not per message.
            draw = self.rng.random
            pledges = [pledge for pledge in pledges if draw() < fraction]
            skipped = received - len(pledges)
            if skipped:
                self.pledges_skipped += skipped
                self.metrics.incr("pledges_skipped", skipped)
        now = self.now
        version = self.version
        ready: list[_Entry] = []
        for pledge in pledges:
            pledged_version = pledge.stamp.version
            if pledged_version > version:
                parked = self._parked.get(pledged_version)
                if parked is None:
                    parked = self._parked[pledged_version] = deque()
                parked.append((pledge, now))
            else:
                ready.append((pledge, now))
        if ready:
            self._audit(ready)

    # -- audit execution ---------------------------------------------------------

    def _audit(self, entries: Iterable[_Entry]) -> None:
        """Re-execute (or cache-probe) every entry and queue the batch's
        verification as one unit of work.

        An entry that cannot be audited -- a slave no enrolled certificate
        names, a version outside the retained history, a pledged "read"
        that is not one -- leaves the batch on its own; its batch mates
        are never held back.
        """
        config = self.config
        # With the cache disabled (experiment A3's baseline) the cache
        # must stay completely out of the picture: no lookups, no stores,
        # no hit/miss accounting -- every audit is a full re-execution.
        cache = self._cache if config.auditor_cache_enabled else None
        batch: list[tuple[Pledge, float, Certificate, str]] = []
        unknown = unverifiable = 0
        service = 0.0
        archive = self._cert_archive
        for pledge, received_at in entries:
            cert = archive.get(pledge.slave_id)
            if cert is None:
                unknown += 1
                continue
            # Signature checks: the slave's pledge signature and the
            # master stamp inside it.  Both are verifications, not
            # signatures.
            charge = 2 * config.verify_time
            trusted_hash = None
            if cache is not None:
                query_hash = pledge.query_hash()
                at_version = cache.get(pledge.stamp.version)
                if at_version is not None:
                    trusted_hash = at_version.get(query_hash)
            if trusted_hash is None:
                outcome = self.reexecute(pledge)
                if outcome is None:
                    unverifiable += 1
                    continue
                trusted_hash = sha1_hex(outcome.result)
                if cache is not None:
                    cache.setdefault(pledge.stamp.version,
                                     {})[query_hash] = trusted_hash
                    self.cache_misses += 1
                charge += (outcome.cost_units * config.service_time_per_unit
                           + config.hash_time)
            else:
                self.cache_hits += 1
                charge += config.hash_time
            service += charge
            batch.append((pledge, received_at, cert, trusted_hash))
        if unverifiable:
            self.metrics.incr("audits_unverifiable", unverifiable)
        if unknown:
            self.metrics.incr("audits_unknown_slave", unknown)
        if batch:
            # The single-server queue finishes the batch when it would
            # have finished the last of its pledges one by one.
            if not config.simulate_service_times:
                service = 0.0
            self.work.submit(service, self._finish_audit, batch)

    def _finish_audit(
            self, batch: list[tuple[Pledge, float, Certificate, str]],
    ) -> None:
        now = self.now
        keys = self.keys
        observe = self.metrics.observe
        obs = self.simulator.obs
        clean = bad_signature = 0
        for pledge, received_at, cert, trusted_hash in batch:
            observe("audit_delay", now - received_at)
            if not pledge.verify(keys, cert.subject_public_key):
                # Unsigned garbage cannot incriminate anyone (no framing).
                bad_signature += 1
                continue
            detection = not constant_time_equals(trusted_hash,
                                                 pledge.result_hash)
            if obs is not None:
                # Always recorded: the Section 3.4/3.5 checks verify audits
                # run after the version advance and with non-negative lag.
                # A batch travels under one trace context, so the event
                # names the read it audits.
                obs.event(self.node_id, "auditor.audit",
                          request_id=pledge.request_id,
                          version=pledge.stamp.version,
                          detection=detection,
                          lag=now - pledge.stamp.timestamp)
            if detection:
                self._accuse(pledge)
            else:
                clean += 1
        self.pledges_audited += len(batch)
        self.metrics.incr("pledges_audited", len(batch))
        if clean:
            self.metrics.incr("audits_clean", clean)
        if bad_signature:
            self.metrics.incr("audits_bad_signature", bad_signature)

    def _accuse(self, pledge: Pledge) -> None:
        """Delayed discovery (Section 3.5): ship the incriminating pledge
        to the master in charge of the signing slave."""
        self.detections += 1
        self.metrics.incr("audit_detections")
        self.metrics.observe("audit_detection_latency",
                             self.now - pledge.stamp.timestamp)
        self.send(self.view.owners[pledge.slave_id],
                  Accusation(pledge=pledge, discovery="audit"))

    # -- instrumentation ----------------------------------------------------------

    def _probe_backlog(self) -> None:
        parked = sum(len(q) for q in self._parked.values())
        self.metrics.record("auditor_backlog_seconds", self.now,
                            self.work.backlog())
        self.metrics.record("auditor_parked_pledges", self.now, float(parked))

    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0
