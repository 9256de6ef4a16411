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
  has not seen ordered within :data:`REQUEST_TIMEOUT` (requests are
  identified by ``(origin, local_seq)``, so ordering duplicates is
  prevented by a dedup table at the sequencer).  The requests are held
  on the member, so one that recovers from a crash retransmits simply
  because its tick restarts.
* *gap repair*: a member receiving sequence ``n + k`` while expecting
  ``n`` asks the sequencer to retransmit the missing range; heartbeats
  carry the sequencer's high-water mark so silent gaps are also found.
* *one view change*: the sequencer emits heartbeats stamped with its
  epoch.  A follower that misses ``suspect_after`` seconds of them, a
  sequencer that hears from less than a majority, and a member that
  recovers from a crash all become leaderless and probe the group.  The
  lowest-ranked member of a majority that answered claims ``epoch + 1``
  (a ``state`` naming itself).  A member that adopts the claim votes,
  once per epoch, with a ``sync`` carrying its history above the
  claimant's delivered mark, each entry tagged with the epoch that
  assigned it.  With a majority's histories in, the claimant takes each
  slot from the highest epoch that assigned it, fills a hole with a
  no-op, re-issues that tail in its own epoch and only then orders.  A
  minority never gathers the votes, so it orders nothing.
* *ordered membership*: the sequencer orders a member's removal once
  its acks stop and its readmission once it is heard again; hosts learn
  of either only at delivery, at every member, so members that
  delivered the same slots hold the same view.

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

    ``kind`` is one of: request, order, nack, heartbeat, ack, state, sync.
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

#: What a view change orders into a slot no voter holds: (origin, stamped
#: payload, epoch).  No origin, so no member delivers it to its host.
_NOOP = ("", {"local_seq": -1, "data": None}, -1)

#: ``_leader_have_seq`` before the regime's first heartbeat.
_UNHEARD = float("inf")
#: Seconds a member waits to see its request ordered before its tick
#: sends it again.
REQUEST_TIMEOUT = 1.0


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
        heartbeat_interval: float = 0.25,
        suspect_after: float = 1.5,
        on_membership: Callable[[str, bool], None] | None = None,
    ) -> None:
        if transport.node_id not in members:
            raise ValueError(
                f"{transport.node_id!r} is not in the member list {members}"
            )
        self.transport = transport
        self.on_deliver = on_deliver
        self.on_membership = on_membership
        self.ranked_members = sorted(members)
        #: Who this engine routes orders to and suspects.  Private to the
        #: engine: a sequencer edits it a call before it delivers the
        #: notice, so hosts read the delivered view (``on_membership``).
        self.alive_view = list(self.ranked_members)
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after = suspect_after

        self.epoch = 0
        #: Members (including self) a sequencer must hear from, and a
        #: claimant must have votes from: otherwise a partitioned minority
        #: could order conflicting writes and sign stale trust.
        self.majority = len(self.ranked_members) // 2 + 1
        self._leader_id = self.ranked_members[0]
        #: While our claim to the current epoch is out: voter -> the
        #: history it sent.  None otherwise.
        self._votes: dict[str, tuple[Any, ...]] | None = None
        self._next_local_seq = 0
        self._pending: dict[int, _PendingRequest] = {}
        self._delivered_up_to = -1  # highest contiguously delivered seq
        self._buffer: dict[int, tuple[str, Any]] = {}
        #: Every order seen: seq -> (origin, stamped payload, epoch that
        #: assigned it).
        self._history: dict[int, tuple[str, Any, int]] = {}
        self._ordered_keys: set[tuple[str, int]] = set()  # sequencer dedup
        self._next_global_seq = 0  # sequencer-side counter
        #: Follower: the leader's last heartbeat.  Claimant: the claim.
        self._last_heartbeat_at = 0.0
        #: Highest global sequence the leader has advertised (heartbeats).
        self._leader_have_seq: float = -1
        #: Member -> when it last answered: a heartbeat ack (at the
        #: sequencer), a probe, a claim or a vote.
        self._last_ack: dict[str, float] = {}
        #: When this engine started; the sequencer's suspicion is
        #: suppressed for one suspect_after window afterwards.
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
        freshly recovered node whose local state is behind the group --
        and for any member that has not yet heard its regime's first
        heartbeat.  Hosts use this to avoid serving *trusted* answers
        (double-checks, keep-alive stamps) from stale state.  The leader
        itself is always caught up: it orders only once it has merged a
        majority's histories.
        """
        if self.is_sequencer:
            return True
        return bool(self._leader_id) \
            and self._delivered_up_to >= self._leader_have_seq

    def is_live(self, seq: int) -> bool:
        """Was slot ``seq`` ordered after the regime's last advertised
        mark -- live, rather than one the group delivered already and we
        replay?  The mark's own slot is a replay: ``_delivered_up_to``
        has reached it before its delivery runs."""
        return self.is_sequencer or seq > self._leader_have_seq

    def announce_recovery(self) -> None:
        """Rejoin after a benign crash: leaderless, whatever we were.

        The group may have changed regimes while we were down, so we
        trust nothing until a live regime's heartbeat arrives (or we win
        a claim).  The host restarts the tick, which probes.
        """
        self._stopped = False
        self._leader_id = ""
        self._votes = None
        self._last_ack.clear()

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
            self._handle_ack(src_id)
        elif envelope.kind == "state":
            self._handle_state(src_id, envelope)
        elif envelope.kind == "sync":
            self._handle_sync(src_id, envelope)
        else:
            raise ValueError(f"unknown broadcast envelope kind "
                             f"{envelope.kind!r}")

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
        if (envelope.origin, envelope.local_seq) in self._ordered_keys:
            return  # duplicate retransmission; already ordered
        self._order(envelope.origin, {"local_seq": envelope.local_seq,
                                      "data": envelope.payload})

    def _order(self, origin: str, stamped: dict[str, Any]) -> None:
        """Sequencer: assign the next global sequence and broadcast it."""
        self._ordered_keys.add((origin, stamped["local_seq"]))
        order = BroadcastEnvelope(
            kind="order",
            origin=origin,
            local_seq=stamped["local_seq"],
            global_seq=self._next_global_seq,
            payload=stamped,
            epoch=self.epoch,
        )
        self._next_global_seq += 1
        # The order goes out before the local delivery: whatever that
        # delivery sends (a commit's reply) must not overtake it, and a
        # delivery that changes the view must not skip a member.
        for member in list(self.alive_view):
            if member != self.transport.node_id:
                self.transport.send(member, order)
        self._handle_order(order)

    def _handle_order(self, envelope: BroadcastEnvelope) -> None:
        if envelope.epoch < self.epoch:
            # In-flight ordering from a deposed leader: refuse.  What the
            # old regime agreed on reaches the new leader in the votes and
            # us through its re-issue or repair.
            return
        seq = envelope.global_seq
        if seq <= self._delivered_up_to:
            return  # duplicate
        self._buffer[seq] = (envelope.origin, envelope.payload)
        self._history[seq] = (envelope.origin, envelope.payload,
                              envelope.epoch)
        self._drain_buffer()
        # Gap detection: something beyond the next expected seq is buffered.
        if self._buffer and min(self._buffer) > self._delivered_up_to + 1:
            self._send_nack()

    def _send_nack(self) -> None:
        if self._leader_id and not self.is_sequencer:
            self.transport.send(self._leader_id, BroadcastEnvelope(
                kind="nack", have_seq=self._delivered_up_to,
                epoch=self.epoch))

    def _drain_buffer(self) -> None:
        while self._delivered_up_to + 1 in self._buffer:
            seq = self._delivered_up_to + 1
            origin, stamped = self._buffer.pop(seq)
            self._delivered_up_to = seq
            self.delivered_count += 1
            if not origin:
                continue  # a no-op that filled a view change's hole
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

    # The view changes only here, at delivery, at every member and the
    # subject too, so members that delivered the same slots hold the same
    # view.  (A sequencer edits its own view a call before: it delivers
    # what it orders in the same call.)
    def _member_down_delivered(self, member_id: str) -> None:
        if member_id in self.alive_view:
            self.alive_view.remove(member_id)
        if self.on_membership is not None:
            self.on_membership(member_id, False)

    def _member_up_delivered(self, member_id: str) -> None:
        if member_id not in self.alive_view:
            self.alive_view.append(member_id)
            self.alive_view.sort()
            self._last_ack[member_id] = self.transport.now
        if self.on_membership is not None:
            self.on_membership(member_id, True)

    def _handle_nack(self, src_id: str, envelope: BroadcastEnvelope) -> None:
        if not self.is_sequencer:
            return
        self._readmit(src_id)
        for seq in range(envelope.have_seq + 1, self._next_global_seq):
            if seq not in self._history:
                continue
            origin, stamped, _epoch = self._history[seq]
            self.transport.send(src_id, BroadcastEnvelope(
                kind="order", origin=origin, local_seq=stamped["local_seq"],
                global_seq=seq, payload=stamped, epoch=self.epoch))

    # -- heartbeats / the view change -----------------------------------------

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.transport.now
        self._resubmit(older_than=REQUEST_TIMEOUT)
        if self.is_sequencer:
            self._heartbeat()
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
            self._probe_or_claim()
        elif now - self._last_heartbeat_at > self.suspect_after:
            # The leader went silent: leave it and probe from the next
            # tick on.  Its removal is ordered, not taken here: whoever
            # leads next finds it silent since then at its first tick.
            self._last_ack[self._leader_id] = self._last_heartbeat_at
            self._leader_id = ""
            self.view_changes += 1

    def _heartbeat(self) -> None:
        self._send_to_group(BroadcastEnvelope(
            kind="heartbeat", have_seq=self._next_global_seq - 1,
            epoch=self.epoch))

    def _send_to_group(self, message: BroadcastEnvelope) -> None:
        """To every other member, in the view or not."""
        for member in self.ranked_members:
            if member != self.transport.node_id:
                self.transport.send(member, message)

    def _reachable(self) -> list[str]:
        """Members (incl. self) heard from within the suspicion window,
        in rank order."""
        now = self.transport.now
        return sorted(
            [self.transport.node_id]
            + [member for member, last in self._last_ack.items()
               if member != self.transport.node_id
               and now - last <= self.suspect_after])

    def _probe_or_claim(self) -> None:
        """Leaderless: probe the group, or claim the next epoch when the
        members that answered are a majority and we rank lowest.

        A claim that has not gathered a majority's votes within
        ``suspect_after`` lapses, and the next tick may claim again.
        """
        now = self.transport.now
        if self._votes is not None \
                and now - self._last_heartbeat_at <= self.suspect_after:
            return
        self._votes = None
        reachable = self._reachable()
        claim = len(reachable) >= self.majority \
            and reachable[0] == self.transport.node_id
        if claim:
            self.epoch += 1
            self._votes = {self.transport.node_id:
                           self._entries_above(self._delivered_up_to)}
            self._last_heartbeat_at = now
        self._send_to_group(BroadcastEnvelope(
            kind="state", epoch=self.epoch, have_seq=self._delivered_up_to,
            leader=self.transport.node_id if claim else ""))

    def _entries_above(self, mark: int) -> tuple[Any, ...]:
        """Our history above ``mark``: (seq, origin, stamped, epoch)."""
        return tuple((seq, *self._history[seq])
                     for seq in sorted(s for s in self._history if s > mark))

    def _handle_state(self, src_id: str, envelope: BroadcastEnvelope) -> None:
        """A probe (names no one) or a claim (names its sender)."""
        self._last_ack[src_id] = self.transport.now
        if envelope.epoch <= self.epoch:
            return  # nothing newer; at most one vote per epoch
        if envelope.leader == src_id:
            # Vote: our history above the claimant's delivered mark.
            self.transport.send(src_id, BroadcastEnvelope(
                kind="sync", epoch=envelope.epoch,
                entries=self._entries_above(envelope.have_seq)))
            self._adopt(src_id, envelope.epoch)
        else:
            # A leaderless member carries a newer epoch (a claim that
            # lapsed): step down to it; a fresh claim needs a majority.
            self.epoch = envelope.epoch
            self._leader_id = ""
            self._votes = None

    def _handle_sync(self, src_id: str, envelope: BroadcastEnvelope) -> None:
        """A vote for our claim."""
        self._last_ack[src_id] = self.transport.now
        votes = self._votes
        if votes is None or envelope.epoch != self.epoch:
            return
        votes[src_id] = envelope.entries
        if len(votes) >= self.majority:
            self._merge(votes)

    def _merge(self, votes: dict[str, tuple[Any, ...]]) -> None:
        """A majority voted: adopt each slot above our delivered mark
        from the highest epoch that assigned it, re-issue that tail in our
        epoch, then order."""
        chosen: dict[int, tuple[Any, ...]] = {}
        for entries in votes.values():
            for seq, origin, stamped, epoch in entries:
                if seq not in chosen or epoch > chosen[seq][2]:
                    chosen[seq] = (origin, stamped, epoch)
        self._votes = None
        self._leader_id = self.transport.node_id
        self._buffer.clear()
        delivered = self._delivered_up_to
        self._ordered_keys = {(origin, stamped["local_seq"])
                              for seq, (origin, stamped, _e)
                              in self._history.items() if seq <= delivered}
        self._next_global_seq = delivered + 1
        # The heartbeat goes first: voters that hear the regime before
        # its re-issued tail commit that tail spaced, as a live group.
        self._heartbeat()
        for seq in range(delivered + 1, max(chosen, default=delivered) + 1):
            origin, stamped, _epoch = chosen.get(seq, _NOOP)
            if (origin, stamped["local_seq"]) in self._ordered_keys:
                origin, stamped, _epoch = _NOOP  # ordered at two slots
            self._order(origin, stamped)
        # A regime we missed may have ordered us down, and no one else
        # readmits a leader.
        self._readmit(self.transport.node_id)
        self._resubmit()

    def _handle_ack(self, src_id: str) -> None:
        if not self.is_sequencer:
            return
        self._readmit(src_id)
        self._last_ack[src_id] = self.transport.now

    def _handle_heartbeat(self, src_id: str,
                          envelope: BroadcastEnvelope) -> None:
        if envelope.epoch < self.epoch:
            return  # a deposed regime; it abdicates once acks stop
        if envelope.epoch > self.epoch or not self._leader_id:
            # We missed a view change (crashed, partitioned or leaderless
            # at this epoch): follow the live regime.
            self._adopt(src_id, envelope.epoch)
        if src_id != self._leader_id:
            return
        self._last_heartbeat_at = self.transport.now
        if self._leader_have_seq == _UNHEARD:
            # The regime's first heartbeat: hand it what we hold.
            self._leader_have_seq = envelope.have_seq
            self._resubmit()
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

    def _adopt(self, leader_id: str, epoch: int) -> None:
        """Follow ``leader_id``, the regime of ``epoch``; trust nothing
        until its first heartbeat."""
        self.epoch = epoch
        self._leader_id = leader_id
        self._votes = None
        self._buffer.clear()  # orders of an older regime may be replaced
        self._leader_have_seq = _UNHEARD
        self._last_heartbeat_at = self.transport.now

    def _readmit(self, member_id: str) -> None:
        """Sequencer: order the return of a member the view holds down."""
        if member_id in self.alive_view \
                or member_id not in self.ranked_members:
            return
        self.alive_view.append(member_id)
        self.alive_view.sort()
        self._last_ack[member_id] = self.transport.now
        self.broadcast({_MEMBER_UP_KEY: member_id})
