"""The CI count gate (tools/bench_gate.py) on canned run output."""

from __future__ import annotations

import io
import json

import pytest

from tools import bench_gate


def gate(monkeypatch: pytest.MonkeyPatch, result: dict, limit: str,
         name: str = "net.transport.msgs_per_read") -> int:
    noise = "FAILED something: detail\n"
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(noise + json.dumps(result) + "\n"))
    return bench_gate.main([name, limit])


@pytest.mark.parametrize("correct,value,expected", [
    (True, 2.19, 0), (True, 2.5, 0),
    (True, 3.06, 1),    # one audit message per read again
    (False, 2.19, 1),   # a lost pledge fails audit_backlog_drained
])
def test_gate(monkeypatch, correct, value, expected):
    result = {"correct": correct, "metrics": {
        "net.transport.msgs_per_read": {"value": value, "unit": "1/read"}}}
    assert gate(monkeypatch, result, "2.5") == expected


@pytest.mark.parametrize("correct,value,expected", [
    (True, 347.9, 0),
    (True, 410.8, 1),   # the whole pledge in every reply again
    (True, 548.1, 1),   # every stamp whole, every hash in hex again
    (False, 347.9, 1),
    (False, 410.8, 1),
])
def test_gate_on_wire_bytes(monkeypatch, correct, value, expected):
    result = {"correct": correct, "metrics": {
        "net.transport.msgs_per_read": {"value": 3.03, "unit": "1/read"},
        "wire_bytes_per_read": {"value": value, "unit": "B/read"}}}
    assert gate(monkeypatch, result, "385",
                name="wire_bytes_per_read") == expected


def test_silent_run_fails(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert bench_gate.main(["net.transport.msgs_per_read", "2.5"]) == 1
