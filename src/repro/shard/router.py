"""Client-side shard routing over cached, owner-signed shard maps.

A :class:`ShardRouter` is the application's single entry point into a
sharded namespace.  It owns one :class:`~repro.core.client.Client` per
shard (a "leg" -- each leg runs the full Section 2 setup against its
shard's master group) and routes every submitted operation by content
key: ``key -> SHA-1 fingerprint -> rendezvous winner`` under the cached
:class:`~repro.shard.map.ShardMap` epoch.

The trust model matches master certificates exactly.  The directory
*serves* the map but cannot forge it: the router verifies the owner's
signature against the a-priori-known content public key before adopting
any epoch, and rejects epoch regressions outright.  A compromised or
withholding directory can therefore only delay routing (operations
queue until a verifiable map arrives), never misroute it.

Re-homing: when a shard moves, the retired master group answers every
request with :class:`~repro.shard.wire.WrongShard`.  The router reacts
by re-fetching the map (the redirect names the epoch it is missing) and
re-running the affected leg's setup phase against the directory --
which by then lists the new master group's certificates.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.content.queries import Operation
from repro.core.client import Client
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import sha1_hex
from repro.crypto.signatures import PublicKey
from repro.metrics import MetricsRegistry
from repro.shard.map import ShardMap, ShardMapError
from repro.shard.wire import ShardMapRequest, ShardMapReply, WrongShard

#: Seconds between two requests while the directory withholds the shard
#: map (a liveness-only failure mode).
MAP_RETRY = 1.0


def operation_fingerprint(op: Operation) -> str:
    """The content-key fingerprint an operation routes by.

    Keyed operations (the KV workload) route by their key, so one key
    always lands on one shard; keyless operations fall back to their
    wire form, which at least keeps routing deterministic.
    """
    key = getattr(op, "key", None)
    token = key if isinstance(key, str) else repr(op.to_wire())
    return sha1_hex(token)


class ShardRouter:
    """Routes operations across per-shard client legs via the map.

    Not a network node itself: the router piggybacks on its legs'
    connections (directory messages go out through the first leg, and
    every leg's ``on_unhandled`` hook feeds shard-control messages --
    :class:`ShardMapReply`, :class:`WrongShard` -- back here).
    """

    def __init__(self, router_id: str, namespace: str,
                 owner_public_key: PublicKey, config: ProtocolConfig,
                 metrics: MetricsRegistry, directory_id: str,
                 clients: dict[str, Client]) -> None:
        if not clients:
            raise ValueError("a router needs at least one shard leg")
        self.node_id = router_id  # duck-types as a load-driving client
        self.namespace = namespace
        self.owner_public_key = owner_public_key
        self.config = config
        self.metrics = metrics
        self.directory_id = directory_id
        #: shard id -> the leg (Client) homed on that shard's masters.
        self.clients = dict(clients)
        self.shard_map: ShardMap | None = None
        self.wrong_shard_redirects = 0
        self._pending: list[tuple[Operation, str | None,
                                  Callable[[dict], None] | None]] = []
        # All directory-bound shard traffic rides the first leg; replies
        # reach whichever leg the directory answers, so every leg's
        # unhandled hook routes here.
        self._anchor = next(iter(self.clients.values()))
        for leg in self.clients.values():
            leg.on_unhandled = self._on_client_message

    # -- lifecycle ---------------------------------------------------------

    @property
    def map_epoch(self) -> int:
        """The adopted epoch (-1 before any verifiable map arrived)."""
        return -1 if self.shard_map is None else self.shard_map.epoch

    @property
    def ready(self) -> bool:
        """A map is adopted and every leg finished its setup phase."""
        return (self.shard_map is not None
                and all(leg.ready for leg in self.clients.values()))

    def start(self) -> None:
        """Start every leg's setup and begin fetching the shard map."""
        for leg in self.clients.values():
            leg.start()
        self._request_map()

    # -- map acquisition ---------------------------------------------------

    def _request_map(self) -> None:
        self.metrics.incr("router_map_requests")
        self._anchor.send(self.directory_id, ShardMapRequest(
            namespace=self.namespace, have_epoch=self.map_epoch))
        # Withholding is the directory's only power here: keep asking.
        self._anchor.after(MAP_RETRY, self._retry_map)

    def _retry_map(self) -> None:
        if self.shard_map is None:
            self._request_map()

    def _adopt(self, shard_map: ShardMap) -> None:
        if shard_map.namespace != self.namespace:
            self.metrics.incr("router_map_rejected")
            return
        try:
            shard_map.verify(self._anchor.keys, self.owner_public_key)
        except ShardMapError:
            # Forged or tampered: worthless, keep whatever we have.
            self.metrics.incr("router_map_rejected")
            return
        if self.shard_map is not None \
                and shard_map.epoch <= self.shard_map.epoch:
            # Replay of an old epoch (stale or rollback-serving
            # directory): monotonicity is the client's own job.
            self.metrics.incr("router_map_stale")
            return
        missing = [sid for sid in shard_map.shard_ids
                   if sid not in self.clients]
        if missing:
            # A verifiable map for a topology this router has no legs
            # for -- adopt nothing rather than route into a void.
            self.metrics.incr("router_map_unroutable")
            return
        previous, self.shard_map = self.shard_map, shard_map
        self.metrics.incr("router_map_adopted")
        if previous is not None:
            # Any shard whose master group changed needs its leg to
            # re-run setup (the directory already lists the new certs).
            for shard_id in shard_map.shard_ids:
                if shard_id in previous.shard_ids and \
                        previous.masters_for(shard_id) \
                        != shard_map.masters_for(shard_id):
                    self._rehome_leg(shard_id)
        pending, self._pending = self._pending, []
        for op, level, callback in pending:
            self.submit(op, level, callback)

    # -- shard-control messages (via the legs' unhandled hook) -------------

    def _on_client_message(self, src_id: str, message: Any) -> bool:
        if isinstance(message, ShardMapReply):
            if message.namespace == self.namespace \
                    and message.shard_map is not None:
                self._adopt(message.shard_map)
            return True
        if isinstance(message, WrongShard):
            self._on_wrong_shard(message)
            return True
        return False

    def _on_wrong_shard(self, message: WrongShard) -> None:
        self.wrong_shard_redirects += 1
        self.metrics.incr("router_wrong_shard")
        if message.epoch > self.map_epoch:
            # The redirect names an epoch we have not seen: fetch it
            # (no retry timer -- the next redirect re-triggers this).
            self._anchor.send(self.directory_id, ShardMapRequest(
                namespace=self.namespace, have_epoch=self.map_epoch))
        self._rehome_leg(message.shard_id)

    def _rehome_leg(self, shard_id: str) -> None:
        leg = self.clients.get(shard_id)
        if leg is None:
            return
        # Only a settled leg re-homes; one already mid-setup will find
        # the new masters by itself (its lookup hits the directory
        # after the republish, or times out and retries until it does).
        if leg.ready:
            leg.rehome()

    # -- operation routing -------------------------------------------------

    def shard_for(self, op: Operation) -> str:
        """The shard this operation routes to under the adopted map."""
        if self.shard_map is None:
            raise RuntimeError("no shard map adopted yet")
        return self.shard_map.shard_for(operation_fingerprint(op))

    def submit(self, op: Operation, level: str | None = None,
               callback: Callable[[dict], None] | None = None) -> None:
        """Route one operation to its shard's leg (queue until mapped)."""
        if self.shard_map is None:
            self._pending.append((op, level, callback))
            self.metrics.incr("router_ops_queued")
            return
        leg = self.clients[self.shard_for(op)]
        leg.submit(op, level=level, callback=callback)


__all__ = ["ShardRouter", "operation_fingerprint"]
