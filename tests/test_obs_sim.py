"""End-to-end tracing over the simulator (repro.obs on ReplicationSystem).

The observability subsystem's whole claim is that the paper's temporal
invariants are re-derivable from spans alone.  These tests run real
deployments -- honest and Byzantine -- and check exactly that:
Section 3.4's audit lag and Section 3.5's discovery timeline fall out
of ``run_report`` without touching protocol internals.
"""

from __future__ import annotations

import random

from repro.content.kvstore import KVGet, KVPut
from repro.core.adversary import AlwaysLie
from repro.core.config import ProtocolConfig
from repro.obs.admin import span_to_wire
from repro.obs.analyze import (
    critical_path,
    detection_check,
    group_traces,
    run_report,
)

from .conftest import make_system


def drive(system, writes=3, reads=20, rate=5.0, seed=1):
    """Schedule a mixed workload starting at the current sim time."""
    rng = random.Random(seed)
    t = system.now
    for i in range(writes):
        t += 1.0 / rate
        client = system.clients[i % len(system.clients)]
        system.schedule_op(client, t, KVPut(key=f"w{i}", value=i))
    for i in range(reads):
        t += 1.0 / rate
        client = system.clients[i % len(system.clients)]
        system.schedule_op(client, t,
                           KVGet(key=f"k{rng.randrange(100):03d}"))
    return t


class TestTracedRuns:
    def test_disabled_by_default(self):
        system = make_system()
        assert system.obs is None
        assert system.simulator.obs is None

    def test_traced_run_builds_causal_graph(self):
        system = make_system(obs_enabled=True)
        system.start()
        drive(system)
        system.run_for(60.0)
        spans = system.obs.collector.spans()
        ops = {span.op for span in spans}
        assert {"client.write", "client.read", "read.verify",
                "master.commit", "slave.apply", "slave.read",
                "auditor.advance", "auditor.audit"} <= ops
        # Well-formed: finished, non-negative durations, parents in-trace.
        for span in spans:
            assert span.end is not None and span.end >= span.start
        for members in group_traces(spans).values():
            ids = {span.span_id for span in members}
            for span in members:
                assert span.parent_id is None or span.parent_id in ids
        # Client operations crossed node boundaries causally.
        client_traces = [members for members in group_traces(spans).values()
                         if any(s.op.startswith("client.")
                                for s in members)]
        assert client_traces
        assert all(len({s.node for s in members}) >= 2
                   for members in client_traces)

    def test_run_report_derives_section_3_4(self):
        system = make_system(obs_enabled=True)
        system.start()
        drive(system)
        system.run_for(60.0)
        report = run_report(system.obs.collector.spans(),
                            max_latency=system.config.max_latency)
        assert report["ok"] is True
        audit = report["audit_lag"]
        assert audit["versions_checked"] >= 3
        assert audit["min_lag"] >= system.config.max_latency

    def test_sampling_bounds_workload_spans(self):
        system = make_system(obs_enabled=True, obs_sample_rate=0.0)
        system.start()
        drive(system)
        system.run_for(60.0)
        ops = {span.op for span in system.obs.collector.spans()}
        # Client-rooted spans are sampled out entirely (slave.apply may
        # remain: it descends from the always-recorded master.commit)...
        assert not any(op.startswith(("client.", "read."))
                       for op in ops)
        assert "slave.read" not in ops
        # ...but invariant spans are always recorded (Section 3.4 needs
        # every commit/advance pair).
        assert {"master.commit", "auditor.advance"} <= ops

    def test_identical_seeds_identical_spans(self):
        def spans_of(seed):
            system = make_system(obs_enabled=True, seed=seed)
            system.start()
            drive(system)
            system.run_for(30.0)
            return [span_to_wire(s) for s in system.obs.collector.spans()]

        assert spans_of(7) == spans_of(7)
        assert spans_of(7) != spans_of(8)

    def test_tracing_does_not_perturb_protocol(self):
        # Same seed with and without obs: identical commit history.
        def history(obs_enabled):
            system = make_system(obs_enabled=obs_enabled)
            system.start()
            drive(system)
            system.run_for(30.0)
            return (system.masters[0].version,
                    list(system.masters[0].history.ops))

        assert history(False) == history(True)


class TestBatchedRepliesUnderTracing:
    """Reply batching does not depend on tracing, and a batch does not
    blur traces: each reply travels under its own read's context."""

    def burst(self, sample_rate):
        system = make_system(
            num_masters=1, slaves_per_master=1, num_clients=2,
            obs_enabled=True, obs_sample_rate=sample_rate,
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    simulate_service_times=False))
        system.start()
        system.run_for(2.0)
        outcomes = []
        for index in range(8):  # one tick, one slave
            system.clients[index % 2].submit_read(
                KVGet(key=f"k{index:03d}"), callback=outcomes.append)
        system.run_for(30.0)
        assert [o["status"] for o in outcomes] == ["accepted"] * 8
        assert system.metrics.count("slave_read_batches") >= 1
        return group_traces(system.obs.collector.spans())

    def test_each_read_trace_holds_its_own_slave_span_only(self):
        traces = self.burst(sample_rate=1.0)
        reads = [members for members in traces.values()
                 if any(s.op == "client.read" for s in members)]
        assert len(reads) == 8
        for members in reads:
            root = next(s for s in members if s.op == "client.read")
            request_id = root.attrs["request_id"]
            served = [s for s in members if s.op == "slave.read"]
            assert [s.attrs["request_id"] for s in served] == [request_id]
            # End to end: the client's verification descends from the
            # slave span that answered it, which descends from the read.
            verify = next(s for s in members if s.op == "read.verify")
            assert verify.attrs["request_id"] == request_id
            assert verify.parent_id == served[0].span_id
            assert served[0].parent_id == root.span_id
            # ...and so does whatever finished the trace (the audit).
            path = critical_path(members)
            assert path[:2] == [root, served[0]] and len(path) >= 3

    def test_unsampled_reads_in_a_batch_stay_untraced(self):
        # Half the reads carry no context; they must not pick up the
        # context of a batch mate (or of the read that armed the flush).
        traces = self.burst(sample_rate=0.5)
        reads = [members for members in traces.values()
                 if any(s.op == "client.read" for s in members)]
        assert 0 < len(reads) < 8
        for members in reads:
            assert sum(s.op == "slave.read" for s in members) == 1
            assert sum(s.op == "read.verify" for s in members) == 1


class TestByzantineSpans:
    def test_immediate_discovery_spans(self):
        system = make_system(
            obs_enabled=True,
            protocol=ProtocolConfig(double_check_probability=0.5,
                                    audit_fraction=0.0),
            adversaries={0: AlwaysLie()})
        system.start()
        drive(system, writes=0, reads=100)
        system.run_for(60.0)
        spans = system.obs.collector.spans()
        accusals = [s for s in spans if s.op == "client.accuse"]
        assert accusals
        assert all(s.attrs["discovery"] == "immediate" for s in accusals)
        exclusions = [s for s in spans if s.op == "master.exclusion"]
        assert {s.attrs["slave"] for s in exclusions} == {"slave-00-00"}
        # Both masters excluded the liar -- one exclusion span each.
        assert {s.node for s in exclusions} == {"master-00", "master-01"}

    def test_audit_detection_spans(self):
        system = make_system(
            obs_enabled=True,
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    audit_fraction=1.0),
            adversaries={0: AlwaysLie()})
        system.start()
        drive(system, writes=2, reads=60)
        system.run_for(90.0)
        spans = system.obs.collector.spans()
        detections = [s for s in spans
                      if s.op == "auditor.audit" and s.attrs["detection"]]
        assert detections
        check = detection_check(spans)
        assert check["ok"] is True and check["count"] >= 1
        accusations = [s for s in spans if s.op == "master.accusation"]
        assert any(s.attrs["discovery"] == "audit" for s in accusations)
        exclusions = [s for s in spans if s.op == "master.exclusion"]
        assert any(s.attrs["discovery"] == "audit" for s in exclusions)
