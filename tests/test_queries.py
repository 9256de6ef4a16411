"""Unit tests for the serialisable operation model."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import Any

import pytest

from repro.content.filesystem import (
    FSGrep,
    FSList,
    FSMkdir,
    FSRead,
    FSRemove,
    FSWrite,
)
from repro.content.kvstore import (
    KVAggregate,
    KVDelete,
    KVGet,
    KVMultiGet,
    KVPut,
    KVRange,
)
from repro.content.minidb import (
    DBAggregate,
    DBCreateTable,
    DBDelete,
    DBInsert,
    DBJoin,
    DBSelect,
    DBUpdate,
)
from repro.content.queries import (
    _REGISTRY,
    Operation,
    ReadQuery,
    WriteOp,
    operation_from_wire,
    register_operation,
)


class TestWireRoundTrip:
    @pytest.mark.parametrize("op", [
        KVGet(key="a"),
        KVMultiGet(keys=("a", "b")),
        KVRange(start="a", end="z", limit=10),
        KVPut(key="k", value={"nested": [1, 2]}),
        FSGrep(pattern="TODO", path="/src"),
        FSWrite(path="/a.txt", content="body"),
        DBSelect(table="t", where=(("c", "==", 1),), columns=("c",),
                 order_by="c", limit=5),
        DBJoin(left="a", right="b", left_col="x", right_col="y"),
    ])
    def test_roundtrip_preserves_equality(self, op):
        assert operation_from_wire(op.to_wire()) == op

    def test_wire_form_is_plain_dict_with_op_tag(self):
        wire = KVGet(key="a").to_wire()
        assert wire["op"] == "kv.get"
        assert wire["key"] == "a"

    def test_roundtrip_preserves_request_hash(self):
        op = DBInsert.from_dicts("t", [{"a": 1}])
        assert operation_from_wire(op.to_wire()).request_hash() == \
            op.request_hash()

    def test_tuple_fields_survive_list_coercion(self):
        # Simulate a JSON hop turning tuples into lists.
        wire = DBSelect(table="t", where=(("c", "==", 1),),
                        columns=("c", "d")).to_wire()
        wire["where"] = [["c", "==", 1]]
        wire["columns"] = ["c", "d"]
        decoded = operation_from_wire(wire)
        assert decoded.where == (("c", "==", 1),)
        assert decoded.columns == ("c", "d")


_Point = namedtuple("_Point", "x y")


@dataclass(frozen=True)
class _Blob:
    tag: str
    parts: list[Any]


_WHERE = (("c", "==", 1),)

#: One sample per built-in operation, plus values ``asdict`` treats
#: specially (nested dataclasses and namedtuples, mutable containers,
#: scalar subclasses) in the one ``Any``-typed field.
_SAMPLES = [
    KVGet(key="a"),
    KVDelete(key="a"),
    KVMultiGet(keys=("a", "b")),
    KVRange(start="a", end="z", limit=10),
    KVAggregate(prefix="p", func="count"),
    KVPut(key="k", value="plain"),
    KVPut(key="k", value=None),
    KVPut(key="k", value=b"\x00\xff"),
    KVPut(key="k", value=True),
    KVPut(key="k", value=-0.0),
    KVPut(key="k", value={"nested": [1, (2, 3)], "d": {"e": bytearray(b"x")}}),
    KVPut(key="k", value=_Blob("t", [_Point(1, [2]), _Blob("u", [])])),
    KVPut(key="k", value=_Point(1, {"z": _Blob("v", [1])})),
    FSRead(path="/a"),
    FSList(path="/"),
    FSMkdir(path="/d"),
    FSRemove(path="/a"),
    FSGrep(pattern="TODO", path="/src"),
    FSWrite(path="/a.txt", content="body"),
    DBCreateTable(table="t", columns=("a", "b")),
    DBInsert.from_dicts("t", [{"a": 1, "b": [1, 2]}]),
    DBSelect(table="t", where=_WHERE, columns=("c",), order_by="c", limit=5),
    DBJoin(left="a", right="b", left_col="x", right_col="y", where=_WHERE),
    DBAggregate(table="t", func="sum", column="c", group_by=("g",),
                where=_WHERE),
    DBUpdate(table="t", where=_WHERE, assignments=(("c", [1, 2]),)),
    DBDelete(table="t", where=_WHERE),
]


def _assert_same(got: Any, want: Any) -> None:
    """Equal values of identical types, all the way down."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want and repr(got) == repr(want)


class TestToWireMatchesAsdict:
    """``to_wire`` skips ``asdict``'s deep copy where it can; what it
    returns must stay what ``asdict`` returned."""

    def test_samples_cover_every_builtin_operation(self):
        builtin = {name for name, cls in _REGISTRY.items()
                   if cls.__module__.startswith("repro.content.")}
        assert {op.op_name for op in _SAMPLES} == builtin

    @pytest.mark.parametrize("op", _SAMPLES, ids=repr)
    def test_same_dict_as_asdict(self, op):
        want = asdict(op)
        want["op"] = op.op_name
        _assert_same(op.to_wire(), want)

    def test_mutable_values_are_copied_not_shared(self):
        value = {"nested": [1, 2]}
        wire = KVPut(key="k", value=value).to_wire()
        assert wire["value"] == value
        assert wire["value"] is not value
        assert wire["value"]["nested"] is not value["nested"]

    def test_unregistered_operation_still_serialises(self):
        @dataclass(frozen=True)
        class Local(ReadQuery):
            key: str
            extra: tuple[int, ...] = ()

        assert Local(key="a", extra=(1,)).to_wire() == {
            "key": "a", "extra": (1,), "op": "read"}


class TestRequestHash:
    def test_deterministic(self):
        assert KVGet(key="a").request_hash() == KVGet(key="a").request_hash()

    def test_distinguishes_parameters(self):
        assert KVGet(key="a").request_hash() != KVGet(key="b").request_hash()

    def test_distinguishes_operation_types(self):
        # Same field shape, different operation.
        assert (KVGet(key="x").request_hash()
                != KVPut(key="x", value=None).request_hash())


class TestDecodeErrors:
    def test_unknown_operation(self):
        with pytest.raises(ValueError, match="unknown operation"):
            operation_from_wire({"op": "kv.explode"})

    def test_not_a_payload(self):
        with pytest.raises(ValueError, match="not an operation"):
            operation_from_wire({"foo": "bar"})
        with pytest.raises(ValueError):
            operation_from_wire(None)  # type: ignore[arg-type]

    def test_duplicate_registration_rejected(self):
        from dataclasses import dataclass
        from typing import ClassVar

        with pytest.raises(ValueError, match="duplicate operation name"):
            @register_operation
            @dataclass(frozen=True)
            class Clash(ReadQuery):
                op_name: ClassVar[str] = "kv.get"


class TestMarkers:
    def test_reads_are_read_queries(self):
        assert isinstance(KVGet(key="a"), ReadQuery)
        assert isinstance(DBSelect(table="t"), ReadQuery)
        assert not isinstance(KVPut(key="a", value=1), ReadQuery)

    def test_writes_are_write_ops(self):
        assert isinstance(KVPut(key="a", value=1), WriteOp)
        assert isinstance(FSWrite(path="/a", content=""), WriteOp)
        assert not isinstance(KVGet(key="a"), WriteOp)

    def test_all_ops_are_operations(self):
        assert isinstance(KVGet(key="a"), Operation)
        assert isinstance(FSWrite(path="/a", content=""), Operation)
