"""repro.shard: directory-driven namespace sharding (ROADMAP item 2).

One master group per content key (the paper's deployment) becomes many
shards per process: an owner-signed :class:`~repro.shard.map.ShardMap`
partitions content-key fingerprints onto shards, multi-tenant hosts
serve several shards behind one listener via
:class:`~repro.shard.wire.ShardEnvelope`, a client-side
:class:`~repro.shard.router.ShardRouter` resolves keys through cached
map epochs, and :class:`~repro.shard.rebalance.Rebalancer` moves a
shard between master groups online (freeze -> snapshot -> re-certify ->
republish -> client re-home) reusing the Section 3.5 machinery.
"""

from repro.shard.map import ShardMap, ShardMapError, shard_fingerprint
from repro.shard.wire import (
    ShardEnvelope,
    ShardMapReply,
    ShardMapRequest,
    WrongShard,
    shard_of,
    tenant_id,
)

__all__ = [
    "ShardEnvelope",
    "ShardMap",
    "ShardMapError",
    "ShardMapReply",
    "ShardMapRequest",
    "WrongShard",
    "shard_fingerprint",
    "shard_of",
    "tenant_id",
]
