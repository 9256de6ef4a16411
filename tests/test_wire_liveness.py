"""Every field on the wire has a reader.

A field a sender fills and no receiver reads costs bytes on every frame
and keeps a wire-format decision alive for nobody.  This scan fails when
an ``__init__`` field of a registered wire dataclass is never read as an
attribute (``value.field`` in a load context) anywhere under
``src/repro`` outside ``net/codec.py``, whose compiled encoders read
every field by construction.  The match is by attribute name, so it is
coarse in the lenient direction: a field shares a reader with any
attribute of the same name.

The four admin-plane types (ids 10-11 and 24-25) are exempt: their
readers are operators and tests, not the protocol.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

from repro.net import codec

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ADMIN_PLANE = frozenset((10, 11, 24, 25))


def attribute_reads() -> set[str]:
    reads: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path == SRC / "net" / "codec.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


def unread_fields(reads: set[str]) -> list[str]:
    unread = []
    for cls, wire_id in sorted(codec._BY_TYPE.items(),
                               key=lambda item: item[1]):
        if wire_id in ADMIN_PLANE or not dataclasses.is_dataclass(cls):
            continue
        unread.extend(f"{wire_id} {cls.__name__}.{field.name}"
                      for field in dataclasses.fields(cls)
                      if field.init and field.name not in reads)
    return unread


def test_every_wire_field_has_a_reader():
    assert unread_fields(attribute_reads()) == []


def test_the_scan_reports_a_field_nobody_reads():
    # Guards the scan itself: drop one name from the reads and each
    # registered field of that name is reported, admin plane excepted.
    reads = attribute_reads() - {"slave_id"}
    assert unread_fields(reads) == ["33 Pledge.slave_id",
                                    "55 BcastExcludeSlave.slave_id"]
