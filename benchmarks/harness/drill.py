"""Detection drill: the verifications the benchmark times must still bite.

One master, two slaves, both misbehaving: slave 0 lies about every
result (``AlwaysLie``), slave 1 serves correct results under garbage
signatures (``BrokenSignature``).  The drill passes only if the liar is
proven guilty and excluded, every wrong result a client accepted came
from a slave that was excluded for it, and nothing the garbling slave
sent was accepted -- so a change that buys speed by skipping a hash compare, a
signature check, a double-check or the audit fails the benchmark.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any

from repro.chaos.invariants import reference_master, trusted_version_stores
from repro.content.kvstore import KVGet, KeyValueStore
from repro.content.queries import operation_from_wire
from repro.core.adversary import AlwaysLie, BrokenSignature
from repro.crypto.hashing import constant_time_equals, sha1_hex
from repro.net.deploy import LocalCluster, NetDeploymentSpec, \
    fast_protocol_config

_CLIENTS = 4
_KEYS = 50
_DEADLINE = 8.0
LIAR, GARBLER = "slave-00-00", "slave-00-01"


async def run_drill(seed: int) -> dict[str, Any]:
    rng = random.Random(f"drill:{seed}")
    content = {f"k{i:03d}": rng.randbytes(16).hex() for i in range(_KEYS)}
    config = fast_protocol_config(
        double_check_probability=0.1, max_latency=0.4,
        keepalive_interval=0.1, audit_grace=0.1)
    spec = NetDeploymentSpec(
        num_masters=1, slaves_per_master=2, num_clients=_CLIENTS,
        seed=seed, protocol=config,
        store_factory=lambda: KeyValueStore(dict(content)),
        adversaries={0: AlwaysLie(), 1: BrokenSignature()})
    cluster = await LocalCluster.launch(spec, settle=0.25)
    try:
        return await _drive(cluster, rng, sorted(content))
    finally:
        await cluster.aclose()


async def _drive(cluster: LocalCluster, rng: random.Random,
                 keys: list[str]) -> dict[str, Any]:
    master = cluster.masters[0]
    counters = cluster.metrics.counters
    stopped = False

    def read(client: Any) -> None:
        if not stopped:
            client.submit(KVGet(key=rng.choice(keys)), None,
                          lambda _outcome: read(client))

    for client in cluster.clients:
        read(client)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _DEADLINE
    # Until the liar is out and its clients, moved to the garbling
    # slave, have rejected a signature.
    while loop.time() < deadline and not (
            LIAR in master.excluded_slaves
            and counters.get("read_reply_bad_signature", 0) > 0):
        await asyncio.sleep(0.02)
    stopped = True

    stores = trusted_version_stores(cluster, reference_master(cluster))
    wrong = unpunished = unflagged = from_garbler = accepted = 0
    for client in cluster.clients:
        tainted = {record.request_id for record in client.tainted_reads}
        for record in client.accepted_log:
            accepted += 1
            if GARBLER in record.slave_ids:
                from_garbler += 1
            query = operation_from_wire(record.query_wire)
            trusted = sha1_hex(
                stores[record.version].execute_read(query).result)
            if not constant_time_equals(record.result_hash, trusted):
                wrong += 1
                if not set(record.slave_ids) <= master.excluded_slaves:
                    unpunished += 1
                if record.request_id not in tainted:
                    unflagged += 1
    detections = (counters.get("immediate_detections", 0)
                  + counters.get("audit_detections", 0))
    checks = [
        _check("drill_liar_excluded", LIAR in master.excluded_slaves,
               f"excluded: {sorted(master.excluded_slaves)} after "
               f"{detections:.0f} detections"),
        # A reply of the liar's still in flight when its exclusion
        # reaches the client can be accepted afterwards and is then not
        # flagged for rollback; that is reported, not judged, here.
        _check("drill_no_wrong_read_undetected",
               unpunished == 0 and (wrong == 0 or detections > 0),
               f"{wrong} wrong results among {accepted} accepted reads, "
               f"{unpunished} from a slave never excluded, {unflagged} "
               f"not flagged for rollback at the client"),
        _check("drill_garbled_signatures_rejected",
               from_garbler == 0
               and counters.get("read_reply_bad_signature", 0) > 0,
               f"{counters.get('read_reply_bad_signature', 0):.0f} replies "
               f"rejected for their signature, {from_garbler} accepted"),
    ]
    return {"checks": checks}


def _check(name: str, passed: bool, detail: str) -> dict[str, Any]:
    return {"name": name, "passed": passed, "detail": detail}
