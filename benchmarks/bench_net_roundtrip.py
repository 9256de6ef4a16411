"""N0 -- Socket transport micro-benchmarks (not a paper experiment).

Sizes the real-transport subsystem (``repro.net``) the way S0 sizes the
simulator: what the wire codec costs per message, what a framed TCP
round-trip costs on localhost, and how many pledge-verified protocol
reads per second a full socket deployment sustains end to end.

Three kernels:

* **codec** -- encode+decode rate for a small (keep-alive), medium
  (read reply with pledge) and large (full store snapshot) message;
* **frame RTT** -- framed request/response round-trips per second
  against a localhost echo server (transport floor: no protocol);
* **cluster reads** -- accepted reads per second against a booted
  :class:`repro.net.deploy.LocalCluster` (the number to compare with
  the simulator's reads/s: everything above the floor is protocol +
  crypto, everything below is TCP and the event loop).

Run standalone for the table, or under pytest-benchmark.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import asyncio
import random
import time

from repro.content.kvstore import KVGet, KVPut, KeyValueStore
from repro.core.messages import KeepAlive, Pledge, ReadReply, SlaveSnapshot, VersionStamp
from repro.crypto.hashing import sha1_hex
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer
from repro.net import codec
from repro.net.deploy import LocalCluster, NetDeploymentSpec, fast_protocol_config
from repro.net.transport import read_frame, write_frame

from benchmarks.common import print_table, scaled


def _sample_messages() -> dict[str, object]:
    rng = random.Random(7)
    master = KeyPair("master-00", new_signer("hmac", rng=rng))
    slave = KeyPair("slave-00-00", new_signer("hmac", rng=rng))
    stamp = VersionStamp.make(master, version=5, timestamp=1.25)
    result = {"key": "k042", "value": ["v", 42, 42 * 42]}
    pledge = Pledge.make(slave, query_wire=("get", "k042"),
                         result_hash=sha1_hex(result), stamp=stamp,
                         request_id="req-00042")
    store = KeyValueStore({f"k{i:03d}": [i, f"value-{i}"]
                           for i in range(200)})
    return {
        "keepalive": KeepAlive(stamp=stamp),
        "read_reply": ReadReply(request_id="req-00042", result=result,
                                pledge=pledge, in_sync=True),
        "snapshot": SlaveSnapshot(store=store, stamp=stamp),
    }


def codec_rates(iterations: int) -> list[tuple[str, int, float, float]]:
    """(message kind, frame bytes, encodes/s, decodes/s) per sample."""
    rows = []
    for kind, message in _sample_messages().items():
        frame = codec.encode_frame(message)
        t0 = time.perf_counter()
        for _ in range(iterations):
            codec.encode_frame(message)
        encode_rate = iterations / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(iterations):
            codec.decode_frame(frame)
        decode_rate = iterations / (time.perf_counter() - t0)
        rows.append((kind, len(frame), encode_rate, decode_rate))
    return rows


def frame_rtt_rate(round_trips: int) -> float:
    """Framed request/response round-trips per second over localhost."""
    message = _sample_messages()["read_reply"]

    async def scenario() -> float:
        async def echo(reader, writer):
            try:
                while True:
                    value, _size = await read_frame(reader, timeout=10.0)
                    await write_frame(writer, value, timeout=10.0)
            except (ConnectionError, asyncio.TimeoutError,
                    asyncio.CancelledError):
                pass
            finally:
                writer.transport.abort()

        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        t0 = time.perf_counter()
        for _ in range(round_trips):
            await write_frame(writer, message, timeout=10.0)
            await read_frame(reader, timeout=10.0)
        elapsed = time.perf_counter() - t0
        writer.close()
        server.close()
        await server.wait_closed()
        return round_trips / elapsed

    return asyncio.run(scenario())


def cluster_read_rate(reads: int) -> dict[str, float]:
    """Pledge-verified protocol reads/s against a live socket cluster."""

    async def scenario() -> dict[str, float]:
        config = fast_protocol_config(double_check_probability=0.0)
        spec = NetDeploymentSpec(num_masters=1, slaves_per_master=1,
                                 num_clients=1, seed=0, protocol=config)
        cluster = await LocalCluster.launch(spec, settle=0.6)
        try:
            client = cluster.clients[0]
            await cluster.write(client, KVPut(key="bench", value="v"))
            await asyncio.sleep(config.max_latency
                                + config.keepalive_interval)
            t0 = time.perf_counter()
            for _ in range(reads):
                reply = await cluster.read(client, KVGet(key="bench"))
                assert reply["status"] == "accepted"
            elapsed = time.perf_counter() - t0
            frames = cluster.metrics.snapshot()["net_frames_received"]
            return {"reads_per_s": reads / elapsed,
                    "accepted": cluster.metrics.snapshot()["reads_accepted"],
                    "frames": frames}
        finally:
            await cluster.aclose()

    return asyncio.run(scenario())


def run_sweep() -> dict:
    iterations = scaled(20_000, 2_000)
    codec_rows = codec_rates(iterations)
    rtt = frame_rtt_rate(scaled(5_000, 500))
    cluster = cluster_read_rate(scaled(300, 60))
    result = {
        "codec": [
            {"message": kind, "frame_bytes": size,
             "encodes_per_s": enc, "decodes_per_s": dec}
            for kind, size, enc, dec in codec_rows
        ],
        "frame_rtt_per_s": rtt,
        "cluster_reads_per_s": cluster["reads_per_s"],
        "cluster_reads_accepted": cluster["accepted"],
        "cluster_frames_received": cluster["frames"],
    }
    print_table(
        "N0: wire codec encode/decode",
        ["message", "frame bytes", "encodes/s", "decodes/s"],
        codec_rows)
    print_table(
        "N0: localhost socket throughput",
        ["metric", "value"],
        [("framed round-trips/s (echo floor)", rtt),
         ("protocol reads/s (full cluster)", cluster["reads_per_s"]),
         ("reads accepted", cluster["accepted"])])
    return result


def test_n0_net_roundtrip(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    assert all(row["encodes_per_s"] > 0 for row in result["codec"])
    assert result["frame_rtt_per_s"] > 0
    # Every benchmark read must have been pledge-verified and accepted.
    assert result["cluster_reads_accepted"] >= scaled(300, 60)


if __name__ == "__main__":
    run_sweep()
