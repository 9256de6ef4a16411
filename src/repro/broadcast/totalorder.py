"""Sequencer-based total-order broadcast engine.

One :class:`TotalOrderBroadcast` instance lives inside each member (in
this system: each trusted server).  The host object supplies transport
primitives -- ``send``/``every``/``now``/``node_id`` -- which
:class:`repro.sim.network.Node` already provides, so a master can pass
itself as the transport.

Message flow::

    member --request--> sequencer --order--> all members

Delivery is in strict global-sequence order.  Recovery mechanisms for
benign faults:

* *request retransmission*: a member's tick re-sends every request it
  has not seen ordered within ``request_timeout`` (requests are
  identified by ``(origin, local_seq)``, so ordering duplicates is
  prevented by a dedup table at the sequencer).  The requests are held
  on the member, so one that recovers from a crash retransmits simply
  because its tick restarts.
* *gap repair*: a member receiving sequence ``n + k`` while expecting
  ``n`` asks the sequencer to retransmit the missing range; heartbeats
  carry the sequencer's high-water mark so silent gaps are also found.
* *view change with epochs*: the sequencer emits heartbeats stamped with
  an epoch number.  A member missing ``suspect_after`` seconds of
  heartbeats deposes the sequencer, promotes the next member in rank
  order and bumps the epoch.  The promoted leader gathers history above
  its own high-water mark from the surviving members (``sync`` messages)
  before assigning new numbers, so sequence numbers are never reused.
  A deposed leader that recovers learns of the newer epoch from the
  first heartbeat it sees and rejoins as a follower.

This is the structure of the Kaashoek et al. protocol the paper cites as
[8], restricted to benign (non-Byzantine) failures exactly as Section 3
assumes for the master set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol


class Transport(Protocol):
    """What the engine needs from its host node."""

    node_id: str

    def send(self, dst_id: str, message: Any, size_bytes: int = 256) -> None: ...

    def every(self, interval: float,
              callback: Callable[[], None]) -> None: ...

    @property
    def now(self) -> float: ...


@dataclass(frozen=True)
class BroadcastEnvelope:
    """Wrapper for every broadcast-protocol message on the wire.

    ``kind`` is one of: request, order, nack, heartbeat, state, sync.
    """

    kind: str
    origin: str = ""
    local_seq: int = -1
    global_seq: int = -1
    payload: Any = None
    epoch: int = 0
    leader: str = ""
    have_seq: int = -1
    entries: tuple = ()


#: Marker keys for engine-internal membership notices riding the total order.
_MEMBER_DOWN_KEY = "__tob_member_down__"
_MEMBER_UP_KEY = "__tob_member_up__"


@dataclass
class _PendingRequest:
    """A request of ours not yet delivered back to us."""

    local_seq: int
    payload: Any
    #: When it was last sent (or held, leaderless).
    submitted_at: float


class TotalOrderBroadcast:
    """One member's state machine for the sequencer broadcast protocol."""

    def __init__(
        self,
        transport: Transport,
        members: list[str],
        on_deliver: Callable[[int, str, Any], None],
        request_timeout: float = 1.0,
        heartbeat_interval: float = 0.25,
        suspect_after: float = 1.5,
        on_member_removed: Callable[[str], None] | None = None,
        on_member_readmitted: Callable[[str], None] | None = None,
    ) -> None:
        if transport.node_id not in members:
            raise ValueError(
                f"{transport.node_id!r} is not in the member list {members}"
            )
        self.transport = transport
        self.on_deliver = on_deliver
        self.on_member_removed = on_member_removed
        self.on_member_readmitted = on_member_readmitted
        self.ranked_members = sorted(members)
        self.alive_view = list(self.ranked_members)
        self.request_timeout = request_timeout
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after = suspect_after

        self.epoch = 0
        #: Minimum members (including self) for leadership: a leader that
        #: cannot reach a majority abdicates, and a candidate without a
        #: majority view never assumes -- otherwise a partitioned
        #: minority could elect itself, order conflicting writes and sign
        #: stale trust, then hijack the epoch on heal.
        self.majority = len(self.ranked_members) // 2 + 1
        self._leader_id = self.ranked_members[0]
        self._next_local_seq = 0
        self._pending: dict[int, _PendingRequest] = {}
        self._delivered_up_to = -1  # highest contiguously delivered seq
        self._buffer: dict[int, tuple[str, Any]] = {}
        self._history: dict[int, tuple[str, Any]] = {}  # every order seen
        self._ordered_keys: set[tuple[str, int]] = set()  # sequencer dedup
        self._next_global_seq = 0  # sequencer-side counter
        self._last_heartbeat_at = 0.0
        #: Highest global sequence the leader has advertised (heartbeats).
        self._leader_have_seq = -1
        #: Leader-side liveness: member -> time of its last heartbeat ack.
        self._last_ack: dict[str, float] = {}
        #: When this engine last (re)started; suspicion is suppressed for
        #: one suspect_after window afterwards so a recovered node cannot
        #: misjudge peers from pre-crash timestamps.
        self._resumed_at = 0.0
        self._stopped = False
        self.view_changes = 0
        self.delivered_count = 0

    # -- public API -----------------------------------------------------

    @property
    def sequencer_id(self) -> str:
        """The member this node currently believes to be the sequencer."""
        return self._leader_id

    @property
    def is_sequencer(self) -> bool:
        return self._leader_id == self.transport.node_id

    def start(self) -> None:
        """Begin heartbeat emission/monitoring.  Call once at deployment."""
        self._last_heartbeat_at = self.transport.now
        self._resumed_at = self.transport.now
        self._last_ack.clear()
        self.transport.every(self.heartbeat_interval, self._tick)

    def stop(self) -> None:
        """Freeze the engine (host crashed or shut down)."""
        self._stopped = True

    def is_caught_up(self) -> bool:
        """Has this member delivered everything the leader advertised?

        False for a follower that is still repairing a gap -- e.g. a
        freshly recovered node whose local state is behind the group.
        Hosts use this to avoid serving *trusted* answers (double-checks,
        keep-alive stamps) from stale state.  The leader itself is always
        caught up by definition; a follower that has not heard a
        heartbeat yet conservatively reports False after recovery.
        """
        if not self._leader_id:
            return False  # leaderless (minority partition): trust nothing
        if self.is_sequencer:
            return True
        return self._delivered_up_to >= self._leader_have_seq

    def announce_recovery(self) -> None:
        """Rejoin after a benign crash: request catch-up from the leader.

        The nack carries our delivered-up-to mark; the sequencer re-admits
        us and retransmits what we missed.  If a newer epoch exists we
        learn it from the next heartbeat.  The host restarts the tick.
        """
        self._stopped = False
        self._last_heartbeat_at = self.transport.now
        self._resumed_at = self.transport.now
        self._last_ack.clear()
        if self.is_sequencer:
            # Leadership does not survive a crash: the group may have
            # elected someone else while we were down, and ordering on a
            # stale epoch would fork the sequence.  Rejoin leaderless and
            # let the quorum path re-establish a regime (adopting the
            # live leader's heartbeats, or re-claiming with a fresh epoch
            # if we are still the lowest-ranked of a reachable majority).
            self._leader_id = ""
        elif self._leader_id:
            self.transport.send(self._leader_id, BroadcastEnvelope(
                kind="nack", have_seq=self._delivered_up_to,
                epoch=self.epoch))

    def broadcast(self, payload: Any) -> int:
        """Submit ``payload`` for total ordering; returns the local seq.

        Delivery (including back to the submitter) happens via
        ``on_deliver`` once the sequencer orders the request.
        """
        local_seq = self._next_local_seq
        self._next_local_seq += 1
        pending = _PendingRequest(local_seq=local_seq, payload=payload,
                                  submitted_at=self.transport.now)
        self._pending[local_seq] = pending
        self._submit(pending)
        return local_seq

    def handle_message(self, src_id: str, envelope: BroadcastEnvelope) -> None:
        """Route one broadcast-protocol message into the engine."""
        if self._stopped:
            return
        if envelope.kind == "request":
            self._handle_request(envelope)
        elif envelope.kind == "order":
            self._handle_order(envelope)
        elif envelope.kind == "nack":
            self._handle_nack(src_id, envelope)
        elif envelope.kind == "heartbeat":
            self._handle_heartbeat(src_id, envelope)
        elif envelope.kind == "ack":
            self._handle_ack(src_id, envelope)
        elif envelope.kind == "state":
            self._handle_state(src_id, envelope)
        elif envelope.kind == "sync":
            self._handle_sync(src_id, envelope)
        else:
            raise ValueError(f"unknown broadcast envelope kind "
                             f"{envelope.kind!r}")

    def note_member_crashed(self, member_id: str) -> None:
        """External crash notice (e.g. from the membership layer)."""
        self._depose_or_remove(member_id)

    # -- submission / ordering ---------------------------------------------

    def _submit(self, pending: _PendingRequest) -> None:
        pending.submitted_at = self.transport.now
        envelope = BroadcastEnvelope(
            kind="request",
            origin=self.transport.node_id,
            local_seq=pending.local_seq,
            payload=pending.payload,
        )
        if self.is_sequencer:
            self._handle_request(envelope)
        elif self._leader_id:
            self.transport.send(self._leader_id, envelope)
        # Leaderless: hold; the tick retries once a regime is
        # re-established.

    def _resubmit(self, older_than: float = 0.0) -> None:
        """Send again every request of ours not delivered back yet."""
        now = self.transport.now
        for pending in list(self._pending.values()):
            if now - pending.submitted_at >= older_than:
                self._submit(pending)

    def _handle_request(self, envelope: BroadcastEnvelope) -> None:
        if not self.is_sequencer:
            # Stale sender view; forward to whoever we believe leads now
            # (drop if leaderless -- the origin's tick will retry).
            if self._leader_id:
                self.transport.send(self._leader_id, envelope)
            return
        self._readmit(envelope.origin)
        key = (envelope.origin, envelope.local_seq)
        if key in self._ordered_keys:
            return  # duplicate retransmission; already ordered
        self._ordered_keys.add(key)
        global_seq = self._next_global_seq
        self._next_global_seq += 1
        stamped = {"local_seq": envelope.local_seq, "data": envelope.payload}
        self._history[global_seq] = (envelope.origin, stamped)
        order = BroadcastEnvelope(
            kind="order",
            origin=envelope.origin,
            local_seq=envelope.local_seq,
            global_seq=global_seq,
            payload=stamped,
            epoch=self.epoch,
        )
        # The order goes out before the local delivery: whatever that
        # delivery sends (a commit's reply) must not overtake it, and a
        # delivery that changes the view must not skip a member.
        for member in list(self.alive_view):
            if member != self.transport.node_id:
                self.transport.send(member, order)
        self._handle_order(order)

    def _handle_order(self, envelope: BroadcastEnvelope) -> None:
        if envelope.epoch < self.epoch:
            # In-flight ordering from a deposed leader: refuse.  Whatever
            # the old regime agreed on is already in the survivors'
            # history and will reach us via the new leader's repair path.
            return
        seq = envelope.global_seq
        if seq <= self._delivered_up_to:
            return  # duplicate
        self._buffer[seq] = (envelope.origin, envelope.payload)
        self._history[seq] = (envelope.origin, envelope.payload)
        if self.is_sequencer:
            self._ordered_keys.add(
                (envelope.origin, envelope.payload["local_seq"]))
        self._drain_buffer()
        # Gap detection: something beyond the next expected seq is buffered.
        if self._buffer and min(self._buffer) > self._delivered_up_to + 1:
            self._send_nack()

    def _send_nack(self) -> None:
        nack = BroadcastEnvelope(kind="nack", have_seq=self._delivered_up_to,
                                 epoch=self.epoch)
        if self.is_sequencer:
            self._handle_nack(self.transport.node_id, nack)
        elif self._leader_id:
            self.transport.send(self._leader_id, nack)

    def _drain_buffer(self) -> None:
        while self._delivered_up_to + 1 in self._buffer:
            seq = self._delivered_up_to + 1
            origin, stamped = self._buffer.pop(seq)
            self._delivered_up_to = seq
            self.delivered_count += 1
            if origin == self.transport.node_id:
                self._pending.pop(stamped["local_seq"], None)
            data = stamped["data"]
            if isinstance(data, dict) and _MEMBER_DOWN_KEY in data:
                # Engine-internal membership notice, delivered in total
                # order so every member reacts at the same stream point.
                self._member_down_delivered(data[_MEMBER_DOWN_KEY])
                continue
            if isinstance(data, dict) and _MEMBER_UP_KEY in data:
                self._member_up_delivered(data[_MEMBER_UP_KEY])
                continue
            self.on_deliver(seq, origin, data)

    def _member_down_delivered(self, member_id: str) -> None:
        if member_id == self.transport.node_id:
            return  # we are evidently alive; rejoin via the next ack
        if member_id in self.alive_view:
            self.alive_view.remove(member_id)
        if self.on_member_removed is not None:
            self.on_member_removed(member_id)

    def _member_up_delivered(self, member_id: str) -> None:
        if member_id == self.transport.node_id:
            return
        if member_id not in self.alive_view \
                and member_id in self.ranked_members:
            self.alive_view.append(member_id)
            self.alive_view.sort()
            self._last_ack[member_id] = self.transport.now
        if self.on_member_readmitted is not None:
            self.on_member_readmitted(member_id)

    def _handle_nack(self, src_id: str, envelope: BroadcastEnvelope) -> None:
        if not self.is_sequencer:
            return
        self._readmit(src_id)
        for seq in range(envelope.have_seq + 1, self._next_global_seq):
            if seq not in self._history:
                continue
            origin, stamped = self._history[seq]
            order = BroadcastEnvelope(kind="order", origin=origin,
                                      local_seq=stamped["local_seq"],
                                      global_seq=seq, payload=stamped,
                                      epoch=self.epoch)
            if src_id == self.transport.node_id:
                self._handle_order(order)
            else:
                self.transport.send(src_id, order)

    # -- heartbeats / view changes -------------------------------------------

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.transport.now
        self._resubmit(older_than=self.request_timeout)
        if self.is_sequencer:
            heartbeat = BroadcastEnvelope(kind="heartbeat",
                                          have_seq=self._next_global_seq - 1,
                                          epoch=self.epoch)
            for member in self.ranked_members:
                if member != self.transport.node_id:
                    self.transport.send(member, heartbeat)
            self._last_heartbeat_at = now
            if now - self._resumed_at > self.suspect_after:
                # Quorum check: a leader that cannot reach a majority of
                # the group (itself included) must abdicate rather than
                # keep ordering in a minority partition.
                if len(self._reachable()) < self.majority:
                    self._leader_id = ""
                    return
                # Follower liveness: a member whose acks stopped is
                # suspected crashed; announce it through the total order
                # so every member learns at the same stream point.
                for member in list(self.alive_view):
                    if member == self.transport.node_id:
                        continue
                    last = self._last_ack.setdefault(member, now)
                    if now - last > self.suspect_after:
                        self.alive_view.remove(member)
                        self.broadcast({_MEMBER_DOWN_KEY: member})
        elif not self._leader_id:
            # Leaderless (abdicated, or candidate without quorum): probe
            # the whole group so healing re-establishes a regime.
            probe = BroadcastEnvelope(kind="state", epoch=self.epoch,
                                      leader="",
                                      have_seq=self._delivered_up_to)
            for member in self.ranked_members:
                if member != self.transport.node_id:
                    self.transport.send(member, probe)
            self._try_claim_leadership()
        elif now - self._last_heartbeat_at > self.suspect_after:
            self._depose_or_remove(self._leader_id)

    def _reachable(self) -> list[str]:
        """Members (incl. self) heard from within the suspicion window,
        in rank order."""
        now = self.transport.now
        return sorted(
            [self.transport.node_id]
            + [member for member, last in self._last_ack.items()
               if member != self.transport.node_id
               and now - last <= self.suspect_after])

    def _try_claim_leadership(self) -> None:
        """While leaderless: re-establish a regime once peers respond.

        Peers answering our probes refresh ``_last_ack``; with a majority
        reachable the lowest-ranked reachable member becomes leader (us,
        with an epoch bump, if that is us; otherwise we ask it).
        """
        reachable = self._reachable()
        if len(reachable) < self.majority:
            return
        if reachable[0] == self.transport.node_id:
            self.epoch += 1
            self._leader_id = self.transport.node_id
            self._assume_leadership()
        else:
            self._leader_id = reachable[0]
            self._last_heartbeat_at = self.transport.now
            self.transport.send(self._leader_id, BroadcastEnvelope(
                kind="state", epoch=self.epoch, leader=self._leader_id,
                have_seq=self._delivered_up_to))

    def _handle_ack(self, src_id: str, envelope: BroadcastEnvelope) -> None:
        if not self.is_sequencer:
            return
        self._readmit(src_id)
        self._last_ack[src_id] = self.transport.now

    def _handle_heartbeat(self, src_id: str,
                          envelope: BroadcastEnvelope) -> None:
        if envelope.epoch < self.epoch:
            # A stale leader (or one we outpaced while partitioned);
            # tell it about our epoch so it steps down / catches up.
            self.transport.send(src_id, BroadcastEnvelope(
                kind="state", epoch=self.epoch, leader=self._leader_id,
                have_seq=self._delivered_up_to))
            return
        if envelope.epoch > self.epoch or not self._leader_id:
            # We missed a view change (crashed or partitioned): adopt the
            # live regime.
            self._adopt_leader(envelope.leader or src_id,
                               max(envelope.epoch, self.epoch))
        if src_id != self._leader_id:
            return
        self._last_heartbeat_at = self.transport.now
        self._leader_have_seq = max(self._leader_have_seq,
                                    envelope.have_seq)
        # Ack so the leader's follower-liveness detector sees us alive.
        self.transport.send(self._leader_id, BroadcastEnvelope(
            kind="ack", epoch=self.epoch,
            have_seq=self._delivered_up_to))
        # Re-request repair whenever we are behind the leader's high-water
        # mark OR a buffered order is stranded behind a gap (the original
        # gap nack may itself have been lost).
        if envelope.have_seq > self._delivered_up_to or (
                self._buffer
                and min(self._buffer) > self._delivered_up_to + 1):
            self._send_nack()

    def _adopt_leader(self, leader_id: str, epoch: int) -> None:
        self.epoch = epoch
        self._leader_id = leader_id
        self._last_heartbeat_at = self.transport.now
        self._readmit(leader_id)
        if self.is_sequencer:
            # We just learned that a newer epoch elected *us* (a follower
            # deposed the old leader and we are next in rank).
            self._assume_leadership()
            return
        # Re-submit anything the old leader never ordered.
        self._resubmit()

    def _depose_or_remove(self, member_id: str) -> None:
        """Remove ``member_id`` from the view; run election if it led."""
        if member_id == self.transport.node_id:
            return
        if member_id in self.alive_view:
            self.alive_view.remove(member_id)
            if self.on_member_removed is not None:
                self.on_member_removed(member_id)
        if member_id != self._leader_id:
            return
        # Elect the next alive member in rank order -- but only claim
        # leadership ourselves with a majority view (minority partitions
        # must freeze, not fork).
        self.view_changes += 1
        self.epoch += 1
        candidates = [m for m in self.alive_view]
        new_leader = candidates[0] if candidates else self.transport.node_id
        self._last_heartbeat_at = self.transport.now
        if new_leader == self.transport.node_id:
            if len(self.alive_view) >= self.majority:
                self._leader_id = new_leader
                self._assume_leadership()
            else:
                self._leader_id = ""  # leaderless; probe until heal
            return
        self._leader_id = new_leader
        # Tell the new leader it has been elected (it may not have
        # noticed the crash itself yet), then re-submit unordered
        # requests to it.
        self.transport.send(self._leader_id, BroadcastEnvelope(
            kind="state", epoch=self.epoch, leader=self._leader_id,
            have_seq=self._delivered_up_to))
        self._resubmit()

    def _assume_leadership(self) -> None:
        """Promoted to sequencer: sync history, then resume numbering."""
        highest = max([self._delivered_up_to] + list(self._history)
                      + list(self._buffer))
        self._next_global_seq = max(self._next_global_seq, highest + 1)
        # Rebuild the dedup table from history so retransmitted requests
        # the old leader already ordered are not ordered twice.
        for _seq, (origin, stamped) in self._history.items():
            self._ordered_keys.add((origin, stamped["local_seq"]))
        state = BroadcastEnvelope(kind="state", epoch=self.epoch,
                                  leader=self.transport.node_id,
                                  have_seq=self._next_global_seq - 1)
        for member in self.ranked_members:
            if member != self.transport.node_id:
                self.transport.send(member, state)
        self._resubmit()

    def _handle_state(self, src_id: str, envelope: BroadcastEnvelope) -> None:
        # State traffic doubles as liveness evidence for quorum counting.
        self._last_ack[src_id] = self.transport.now
        if envelope.epoch > self.epoch:
            if envelope.leader:
                self._adopt_leader(envelope.leader, envelope.epoch)
            else:
                # A leaderless node surfaced a higher epoch (failed
                # elections in a minority partition).  Raft-style: step
                # down to that epoch; re-election needs a majority.
                self.epoch = envelope.epoch
                self._leader_id = ""
                return
        elif envelope.epoch < self.epoch:
            # Inform the stale sender of the current regime.
            self.transport.send(src_id, BroadcastEnvelope(
                kind="state", epoch=self.epoch, leader=self._leader_id,
                have_seq=self._delivered_up_to))
            return
        elif not self._leader_id and envelope.leader:
            # Equal epoch, we are leaderless, the sender names a live
            # regime: adopt it.
            self._adopt_leader(envelope.leader, envelope.epoch)
        elif self._leader_id and not envelope.leader:
            # Equal epoch, sender is leaderless and probing: name our
            # regime.
            self.transport.send(src_id, BroadcastEnvelope(
                kind="state", epoch=self.epoch, leader=self._leader_id,
                have_seq=self._delivered_up_to))
            return
        # Same epoch: if the sender (the leader) is missing orders we hold,
        # ship them so sequence numbers are never reused.
        if src_id == self._leader_id and not self.is_sequencer:
            missing = [
                (seq, self._history[seq][0], self._history[seq][1])
                for seq in sorted(self._history)
                if seq > envelope.have_seq
            ]
            if missing:
                self.transport.send(src_id, BroadcastEnvelope(
                    kind="sync", epoch=self.epoch, entries=tuple(missing)))
            # Also pull anything the new leader has that we do not.
            if envelope.have_seq > self._delivered_up_to:
                self._send_nack()

    def _handle_sync(self, src_id: str, envelope: BroadcastEnvelope) -> None:
        if not self.is_sequencer or envelope.epoch != self.epoch:
            return
        advanced = False
        for seq, origin, stamped in envelope.entries:
            if seq not in self._history:
                self._history[seq] = (origin, stamped)
                self._ordered_keys.add((origin, stamped["local_seq"]))
                advanced = True
            order = BroadcastEnvelope(kind="order", origin=origin,
                                      local_seq=stamped["local_seq"],
                                      global_seq=seq, payload=stamped,
                                      epoch=self.epoch)
            self._handle_order(order)
        if advanced:
            highest = max(self._history)
            self._next_global_seq = max(self._next_global_seq, highest + 1)
            # Re-propagate so every member converges on the merged history.
            for member in self.alive_view:
                if member == self.transport.node_id:
                    continue
                for seq in sorted(self._history):
                    origin, stamped = self._history[seq]
                    self.transport.send(member, BroadcastEnvelope(
                        kind="order", origin=origin,
                        local_seq=stamped["local_seq"], global_seq=seq,
                        payload=stamped, epoch=self.epoch))

    def _readmit(self, member_id: str) -> None:
        """Re-admit a recovered member to the delivery view (as follower)."""
        if member_id in self.alive_view or member_id == self.transport.node_id:
            return
        if member_id not in self.ranked_members:
            return
        self.alive_view.append(member_id)
        self.alive_view.sort()
        self._last_ack[member_id] = self.transport.now
        if self.on_member_readmitted is not None:
            self.on_member_readmitted(member_id)
        if self.is_sequencer:
            # Tell the whole group, in total order, that the member is
            # back (followers cannot see the rejoin nack themselves).
            self.broadcast({_MEMBER_UP_KEY: member_id})
