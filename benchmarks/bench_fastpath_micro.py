"""F0 -- Crypto/serialisation fast-path before/after micro-benchmarks.

The fast path (``repro.crypto.fastpath``) memoises canonical
serialisation, signed payloads and repeated signature verifications.
This module measures exactly what it buys on the RSA-signer read path:

* **client validation kernel** -- the per-read work a client does on an
  RSA deployment (hash the result, verify the master stamp, verify the
  slave pledge), timed over the same pledge stream with the fast path
  off (the seed's behaviour: every payload re-canonicalised, every
  signature re-verified) and on.  What the cache guarantees, and what
  the test asserts, is a count: full signature verifications per
  validated reply are 2 with it off (stamp and pledge) and 1 with it on
  (the pledge, unique per read; the stamp is verified once for the
  whole stream).  The timing ratio is printed, not asserted: it tends
  to 2 as serialisation gets cheap and sits on the old ``>= 2.0`` bar.
* **end-to-end RSA system** -- accepted reads per wall-clock second for
  a full ``signer_scheme="rsa"`` deployment.  Note the seed accepted
  *zero* RSA reads: verification dispatched on the verifier's own
  scheme, so HMAC-keyed clients could never verify RSA certificates and
  setup looped forever.  Any positive throughput here is new capability;
  the recorded number gives future PRs a real baseline.

Run standalone for the table, or under pytest-benchmark; results are
snapshotted by ``benchmarks/record.py``.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import random
import time

from repro.core.config import ProtocolConfig
from repro.core.messages import Pledge, VersionStamp
from repro.crypto import fastpath
from repro.crypto.hashing import constant_time_equals, sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer

from benchmarks.common import (
    build_system,
    print_table,
    scaled,
    schedule_uniform_reads,
)

#: Distinct popular results in the kernel's read stream (a skewed
#: workload re-reads few keys; 8 keeps both caches warm and honest).
_POPULAR = 8


def _build_pledge_stream(reads: int) -> tuple:
    """One master-signed stamp + ``reads`` slave-signed RSA pledges."""
    rng = random.Random(2024)
    master = KeyPair("master-00", new_signer("rsa", rng=rng))
    slave = KeyPair("slave-00-00", new_signer("rsa", rng=rng))
    client = KeyPair("client-00", new_signer("hmac", rng=rng))
    stamp = VersionStamp.make(master, version=3, timestamp=0.0)
    popular = [{"key": f"k{i:03d}", "value": [i, i * i, f"payload-{i}"]}
               for i in range(_POPULAR)]
    pledges = []
    for i in range(reads):
        result = popular[i % _POPULAR]
        pledges.append((result, Pledge.make(
            slave, query_wire=("get", f"k{i % _POPULAR:03d}"),
            result_hash=sha1_hex(result), stamp=stamp,
            request_id=f"req-{i:05d}")))
    return pledges, client, master.public_key, slave.public_key


def _validate_stream(pledges, client_keys, master_pk, slave_pk) -> int:
    """The client's per-read acceptance checks (order as in Client)."""
    ok = 0
    for result, pledge in pledges:
        if not constant_time_equals(sha1_hex(result), pledge.result_hash):
            continue
        if not pledge.stamp.verify(client_keys, master_pk):
            continue
        if not pledge.verify(client_keys, slave_pk):
            continue
        ok += 1
    return ok


def client_validation_rate(reads: int, fast: bool) -> tuple[float, int]:
    """Validations per second over an RSA pledge stream, and how many
    full signature verifications the pass performed.

    The stream is built with the fast path enabled either way (building
    is setup, not the measured path); the timed validation pass then
    runs with the fast path in the requested state.  Disabling clears
    the process caches, so ``fast=False`` reproduces the seed's
    every-check-from-scratch behaviour exactly.
    """
    fastpath.configure(enabled=True)
    stream = _build_pledge_stream(reads)
    fastpath.configure(enabled=fast)
    if fast:
        # Cold process caches: only per-instance payload memos (seeded
        # at signing time, as in a real run) carry over.
        fastpath.VERIFY_CACHE.clear()
        fastpath.CANONICAL_CACHE.clear()
    hits_before = fastpath.VERIFY_CACHE.hits
    try:
        start = time.perf_counter()
        ok = _validate_stream(*stream)
        elapsed = time.perf_counter() - start
    finally:
        fastpath.configure(enabled=True)
    assert ok == reads, f"kernel validated {ok}/{reads} pledges"
    # Two checks per reply (stamp, pledge); each is either answered by
    # the verify cache or verified in full.
    verified = 2 * reads - (fastpath.VERIFY_CACHE.hits - hits_before)
    return reads / elapsed, verified


def rsa_end_to_end(reads: int) -> dict:
    """Accepted reads/s for a full RSA deployment (seed accepted zero)."""
    protocol = ProtocolConfig(signer_scheme="rsa",
                              double_check_probability=0.05)
    system = build_system(protocol=protocol)
    end = schedule_uniform_reads(system, reads, rate=50.0)
    start = time.perf_counter()
    system.run_for(end - system.now + 30.0)
    elapsed = time.perf_counter() - start
    accepted = system.metrics.count("reads_accepted")
    return {
        "reads_per_s": accepted / elapsed,
        "accepted": accepted,
        "submitted": system.metrics.count("reads_submitted"),
        "verify_cache_hits": system.metrics.count("verify_cache_hits"),
        "verify_cache_misses": system.metrics.count("verify_cache_misses"),
    }


def run_sweep() -> dict:
    reads = scaled(2000, 400)
    off, verified_off = client_validation_rate(reads, fast=False)
    on, verified_on = client_validation_rate(reads, fast=True)
    e2e = rsa_end_to_end(scaled(400, 150))
    result = {
        "validate_off_per_s": off,
        "validate_on_per_s": on,
        "validate_speedup": on / off,
        "validate_reads": reads,
        "validate_verified_off": verified_off,
        "validate_verified_on": verified_on,
        "rsa_e2e_reads_per_s": e2e["reads_per_s"],
        "rsa_e2e_accepted": e2e["accepted"],
        "rsa_e2e_submitted": e2e["submitted"],
        "rsa_e2e_verify_cache_hits": e2e["verify_cache_hits"],
        "rsa_e2e_verify_cache_misses": e2e["verify_cache_misses"],
    }
    print_table(
        "F0: crypto fast path, before/after (RSA-signer read path)",
        ["metric", "value"],
        [("client validations/s, fast path OFF (seed behaviour)", off),
         ("client validations/s, fast path ON", on),
         ("kernel speedup x (not asserted)", on / off),
         ("full verifications per reply, fast path OFF",
          verified_off / reads),
         ("full verifications per reply, fast path ON",
          verified_on / reads),
         ("end-to-end RSA accepted reads/s (seed: 0 -- broken)",
          e2e["reads_per_s"]),
         ("end-to-end RSA reads accepted", e2e["accepted"]),
         ("end-to-end verify-cache hit share",
          e2e["verify_cache_hits"]
          / max(1.0, e2e["verify_cache_hits"]
                + e2e["verify_cache_misses"]))])
    return result


def test_f0_fastpath_micro(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    # What the verify cache guarantees: uncached, every reply pays two
    # full verifications (stamp and pledge); cached, one (the pledge),
    # plus the stream's single stamp verification.
    reads = result["validate_reads"]
    assert result["validate_verified_off"] == 2 * reads
    assert result["validate_verified_on"] == reads + 1
    # The seed's RSA end-to-end path accepted zero reads (cross-scheme
    # verification bug); the fast layer's dispatch fix makes it work.
    assert result["rsa_e2e_accepted"] > 0
    assert result["rsa_e2e_verify_cache_hits"] > 0


if __name__ == "__main__":
    run_sweep()
