"""Tracing and the admin plane over real sockets (repro.net + repro.obs).

Two wire-crossing guarantees:

* **causal propagation**: a ``TraceCarrier`` envelope carries the
  active context on every TCP send, so spans recorded on the receiving
  node join the originating client's trace;
* **admin plane**: ``ObsDump``/``Status`` are answered on each node's
  ordinary listener over the ordinary frame codec, traced or not -- a
  scrape is just another (handshaken) connection.

Same harness rules as test_net_system: no pytest-asyncio, every test
drives its own ``asyncio.run`` under a hard timeout.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.content.kvstore import KVGet, KVPut
from repro.net.deploy import (
    LocalCluster,
    NetDeploymentSpec,
    fast_protocol_config,
)
from repro.obs.admin import (
    ObsDumpReply,
    ObsDumpRequest,
    StatusReply,
    StatusRequest,
    span_from_wire,
)
from repro.obs.analyze import group_traces

pytestmark = [pytest.mark.net, pytest.mark.obs]


def run(coro, timeout: float = 90.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def obs_spec(seed: int = 11, **overrides) -> NetDeploymentSpec:
    overrides.setdefault("protocol", fast_protocol_config(
        double_check_probability=0.0))
    return NetDeploymentSpec(num_masters=2, slaves_per_master=2,
                             num_clients=2, seed=seed, obs_enabled=True,
                             **overrides)


async def _workload(cluster: LocalCluster) -> None:
    committed = await cluster.write(cluster.clients[0],
                                    KVPut(key="k", value="v1"))
    assert committed["status"] == "committed"
    for client in cluster.clients:
        reply = await cluster.read(client, KVGet(key="k"))
        assert reply["status"] == "accepted"


class TestContextPropagation:
    def test_client_traces_cross_tcp(self):
        async def scenario():
            cluster = await LocalCluster.launch(obs_spec(), settle=0.6)
            try:
                await _workload(cluster)
                # Contexts arrived inside TraceCarrier envelopes.
                assert cluster.obs.contexts_received > 0
                traces = group_traces(cluster.obs.collector.spans())
                client_traces = [
                    members for members in traces.values()
                    if any(s.op in ("client.read", "client.write")
                           for s in members)]
                assert client_traces
                # Every client operation's trace spans >= 2 processes'
                # worth of nodes: causality survived the socket hop.
                for members in client_traces:
                    assert len({s.node for s in members}) >= 2
            finally:
                await cluster.aclose()

        run(scenario())

    def test_replies_batch_under_tracing_and_keep_their_own_trace(self):
        """CI's count gate for the Observability step: no protocol
        behaviour depends on obs being attached.  An 8-deep load on a
        traced cluster is answered in batches, and every reply's
        carrier still names its own read's ``slave.read`` span."""
        async def scenario():
            spec = NetDeploymentSpec(
                num_masters=1, slaves_per_master=1, num_clients=1, seed=12,
                obs_enabled=True,
                protocol=fast_protocol_config(double_check_probability=0.0))
            cluster = await LocalCluster.launch(spec, settle=0.6)
            try:
                client = cluster.clients[0]
                for _round in range(5):
                    replies = await asyncio.gather(*(
                        cluster.read(client, KVGet(key=f"k{i}"))
                        for i in range(8)))
                    assert all(r["status"] == "accepted" for r in replies)
                assert cluster.metrics.count("slave_read_batches") > 0
                traces = group_traces(cluster.obs.collector.spans())
                reads = [members for members in traces.values()
                         if any(s.op == "client.read" for s in members)]
                assert len(reads) == 40
                for members in reads:
                    root = next(s for s in members if s.op == "client.read")
                    served = [s for s in members if s.op == "slave.read"]
                    assert [s.attrs["request_id"] for s in served] == \
                        [root.attrs["request_id"]]
                    verify = next(s for s in members
                                  if s.op == "read.verify")
                    assert verify.parent_id == served[0].span_id
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())

    def test_disabled_cluster_sends_bare_frames(self):
        async def scenario():
            spec = obs_spec()
            plain = NetDeploymentSpec(
                num_masters=spec.num_masters,
                slaves_per_master=spec.slaves_per_master,
                num_clients=spec.num_clients, seed=spec.seed,
                protocol=spec.protocol)
            cluster = await LocalCluster.launch(plain, settle=0.6)
            try:
                await _workload(cluster)
                assert cluster.obs is None
                # The admin plane answers without tracing: no spans, no
                # contexts (every frame arrived bare), events counted.
                health = await cluster.scrape("slave-00-00", StatusRequest())
                assert isinstance(health, StatusReply)
                assert health.contexts_received == 0
                assert health.spans_buffered == health.spans_dropped == 0
                assert health.events_processed > 0
                dump = await cluster.scrape("master-00", ObsDumpRequest())
                assert dump == ObsDumpReply(node_id="master-00", spans=(),
                                            dropped=0)
                assert cluster.handler_errors() == []
            finally:
                await cluster.aclose()

        run(scenario())


class TestAdminPlane:
    def test_scrape_spans_and_health(self):
        async def scenario():
            cluster = await LocalCluster.launch(obs_spec(), settle=0.6)
            try:
                await _workload(cluster)
                dump = await cluster.scrape("master-00", ObsDumpRequest())
                assert isinstance(dump, ObsDumpReply)
                assert dump.node_id == "master-00"
                spans = [span_from_wire(wire) for wire in dump.spans]
                assert spans
                assert all(s.node == "master-00" for s in spans)
                assert any(s.op == "master.commit" for s in spans)
                # The wire tuples rebuild into JSON-serializable spans.
                json.dumps([list(wire) for wire in dump.spans])

                health = await cluster.scrape("slave-00-00", StatusRequest())
                assert isinstance(health, StatusReply)
                assert health.node_id == "slave-00-00"
                assert health.contexts_received > 0
                assert health.events_processed > 0
                # The scrapes themselves were counted by the servers.
                assert cluster.metrics.count("obs_admin_requests") >= 2
            finally:
                await cluster.aclose()

        run(scenario())

    def test_dump_clear_empties_buffer(self):
        async def scenario():
            cluster = await LocalCluster.launch(obs_spec(), settle=0.6)
            try:
                await _workload(cluster)
                first = await cluster.scrape(
                    "master-00", ObsDumpRequest(max_spans=4096, clear=True))
                assert first.spans
                second = await cluster.scrape("master-00", ObsDumpRequest())
                # Only spans finished after the clear remain.
                assert len(second.spans) < len(first.spans)
            finally:
                await cluster.aclose()

        run(scenario())


class TestObsCli:
    def test_repro_sim_obs_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "obs-out"
        code = main(["obs", "--seed", "3", "--reads", "8", "--writes", "2",
                     "--settle", "0.6", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ok"] is True
        assert report["audit_lag"]["ok"] is True
        assert report["section_3_5"]["exclusions"] >= 1
        trace = json.loads((out / "trace.json").read_text())
        assert trace["traceEvents"]
        metrics = (out / "metrics.prom").read_text()
        assert "repro_" in metrics
        assert (out / "spans.jsonl").read_text().strip()
