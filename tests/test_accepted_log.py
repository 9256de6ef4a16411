"""The accepted-read log: a read-only sequence over packed columns, and
what a read leaves behind once it is accepted (ROADMAP item 5)."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.content.kvstore import KVGet
from repro.core.accepted import AcceptedLog, AcceptedRead
from repro.core.config import ProtocolConfig
from repro.crypto.hashing import sha1_hex

from .conftest import make_system


def record(n: int, key: str = "k001", **fields) -> AcceptedRead:
    values = dict(request_id=f"client-00:r{n}",
                  query_wire=KVGet(key=key).to_wire(),
                  result_hash=sha1_hex(n), version=n // 2,
                  accepted_at=n / 10, double_checked=n % 3 == 0,
                  slave_ids=("slave-00-00",) if n % 2 else ())
    values.update(fields)
    return AcceptedRead(**values)


class TestSequence:
    def test_reads_back_what_was_logged(self):
        log = AcceptedLog("client-00")
        records = [record(n, key=f"k{n % 4:03d}") for n in range(10)]
        log.extend(records)
        assert len(log) == 10
        assert list(log) == records
        assert log[0] == records[0] and log[-1] == records[-1]
        assert log[2:5] == records[2:5] and log[::-3] == records[::-3]
        assert log[:1] == records[:1] and log[10:] == []
        with pytest.raises(IndexError):
            log[10]
        with pytest.raises(IndexError):
            log[-11]

    def test_a_query_is_held_once(self):
        log = AcceptedLog("client-00")
        log.append(record(1))
        log.append(record(2))
        assert log[0].query_wire is log[1].query_wire

    @pytest.mark.parametrize("fields", [
        {"request_id": "client-01:r1"},
        {"request_id": "client-00:w1"},
        {"request_id": "client-00:r01"},
        {"result_hash": "ab" * 19},
        {"result_hash": "AB" * 20},
        {"result_hash": "not hex"},
    ])
    def test_rejects_a_record_it_cannot_read_back(self, fields):
        log = AcceptedLog("client-00")
        with pytest.raises(ValueError):
            log.append(record(1, **fields))
        assert len(log) == 0

    def test_rows_an_exclusion_implicates(self):
        log = AcceptedLog("client-00")
        rows = [(("s0",), False), (("s1",), False), (("s0", "s1"), False),
                (("s0",), True), ((), False), (("s0",), False)]
        log.extend(record(n, slave_ids=slaves, double_checked=checked)
                   for n, (slaves, checked) in enumerate(rows))
        assert log.unchecked_rows_of("s0") == [0, 2, 5]
        assert log.unchecked_rows_of("s1") == [1, 2]
        assert log.unchecked_rows_of("s9") == []


class TestTheClientsLog:
    def test_every_accepted_read_is_logged_as_accepted(self):
        """Slave reads, double-checked reads and reads executed only on
        the master: each row matches the verdict its callback got."""
        system = make_system(num_clients=1, protocol=ProtocolConfig(
            double_check_probability=0.5))
        system.start()
        client = system.clients[0]
        outcomes, t = [], system.now
        for i in range(30):
            system.schedule_op(client, t + i * 0.2, KVGet(key=f"k{i % 7:03d}"),
                               "sensitive" if i % 5 == 0 else None,
                               outcomes.append)
        system.run_for(30.0)
        assert len(outcomes) == 30 == len(client.accepted_log)
        assert {o["status"] for o in outcomes} == {"accepted"}
        for outcome, logged in zip(outcomes, client.accepted_log):
            assert logged.result_hash == sha1_hex(outcome["result"])
            assert logged.version == outcome["version"]
            assert logged.double_checked == outcome["double_checked"]
        master_reads = [r for r in client.accepted_log if not r.slave_ids]
        assert len(master_reads) == 6
        assert all(r.double_checked for r in master_reads)


class TestRetention:
    WARM, MEASURED = 6000, 5000

    def test_a_read_leaves_no_object_behind(self):
        """ROADMAP item 5, as counts: once the bounded caches are full,
        an accepted read retains under 160 B (650 when the log held an
        object per read) and no GC-tracked object."""
        system = make_system(
            num_masters=1, slaves_per_master=1, num_clients=1,
            protocol=ProtocolConfig(double_check_probability=0.0,
                                    simulate_service_times=False))
        system.start()
        system.run_for(2.0)
        client = system.clients[0]
        accepted = [0]
        until = [self.WARM]

        def read(outcome=None):
            if outcome is not None:
                assert outcome["status"] == "accepted"
                accepted[0] += 1
            if accepted[0] < until[0]:
                client.submit_read(KVGet(key=f"k{accepted[0] % 100:03d}"),
                                   callback=read)

        def run_reads():
            read()
            while accepted[0] < until[0]:
                system.run_for(10.0)
            # Cancelled time-outs leave the event heap when they fall due.
            system.run_for(system.config.request_timeout + 1.0)
            gc.collect()
            return (tracemalloc.get_traced_memory()[0],
                    len(gc.get_objects()))

        tracemalloc.start()
        try:
            bytes_warm, objects_warm = run_reads()
            until[0] += self.MEASURED
            bytes_end, objects_end = run_reads()
        finally:
            tracemalloc.stop()
        assert len(client.accepted_log) == self.WARM + self.MEASURED
        assert (bytes_end - bytes_warm) / self.MEASURED <= 160
        assert (objects_end - objects_warm) / self.MEASURED <= 0.25
