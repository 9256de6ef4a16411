"""Wire vocabulary for the sharded, multi-tenant deployment.

These are infrastructure carriers (explicit codec ids 17-21 in
:mod:`repro.net.codec`), not protocol messages: they wrap, distribute,
or redirect the Section 3 protocol without changing it.

* :class:`ShardEnvelope` -- the multi-tenant routing wrapper.  A host
  process serves many per-shard tenants behind one listener; the
  envelope names which tenant a message is from/for.  Like
  ``TraceCarrier`` and ``FrameBatch`` it is an *envelope*: the carried
  message is encoded by its own registry entry, so signed payloads
  inside are byte-identical to an unsharded send and every signature
  verifies unchanged.
* :class:`ShardMapRequest` / :class:`ShardMapReply` -- clients fetch
  the owner-signed :class:`~repro.shard.map.ShardMap` from the
  (untrusted) directory.
* :class:`WrongShard` -- a retired tenant's redirect: "this shard moved;
  fetch a map at or beyond ``epoch`` and re-home".

Tenant ids are ``"{shard_id}:{base}"`` (rebalance generations insert a
``g{n}`` segment: ``"{shard_id}:g{n}:{base}"``), so shard membership is
syntactic -- :func:`shard_of` never needs a lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.shard.map import ShardMap

#: Separator between the shard id and the base node id in tenant ids.
TENANT_SEP = ":"


def tenant_id(shard_id: str, base: str, generation: int = 0) -> str:
    """The globally-unique node id of ``base`` inside ``shard_id``.

    Generation 0 (initial placement) is unadorned; rebalanced tenants
    carry a ``g{n}`` segment so a shard's new incarnation never collides
    with its frozen predecessor's ids.
    """
    if TENANT_SEP in shard_id:
        raise ValueError(f"shard id {shard_id!r} may not contain "
                         f"{TENANT_SEP!r}")
    if generation:
        return f"{shard_id}{TENANT_SEP}g{generation}{TENANT_SEP}{base}"
    return f"{shard_id}{TENANT_SEP}{base}"


def shard_of(node_id: str) -> str | None:
    """The shard a tenant id belongs to, or None for unsharded nodes."""
    head, sep, _rest = node_id.partition(TENANT_SEP)
    return head if sep else None


@dataclass(frozen=True, slots=True)
class ShardEnvelope:
    """Multi-tenant carrier: (shard, src tenant, dst tenant, message)."""

    shard_id: str
    src: str
    dst: str
    message: Any


@dataclass(frozen=True, slots=True)
class ShardMapRequest:
    """Client -> directory: the current shard map for a namespace."""

    namespace: str
    #: The epoch the requester already holds; the directory may skip the
    #: reply body when it has nothing newer.
    have_epoch: int = -1


@dataclass(frozen=True, slots=True)
class ShardMapReply:
    """Directory -> client: the latest published map (None = withheld
    or unknown namespace; the client just retries -- liveness only)."""

    namespace: str
    shard_map: ShardMap | None


@dataclass(frozen=True, slots=True)
class WrongShard:
    """Retired tenant -> client: this shard moved; re-home.

    ``epoch`` is the first map epoch reflecting the move, so the client
    knows a fetch returning anything older is stale.
    """

    shard_id: str
    epoch: int
