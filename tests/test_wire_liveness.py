"""Every field on the wire has a reader.

A field a sender fills and no receiver reads costs bytes on every frame
and keeps a wire-format decision alive for nobody.  This scan fails when
an ``__init__`` field of a registered wire dataclass is never read as an
attribute (``value.field`` in a load context) of a value of that type
anywhere under ``src/repro`` outside ``net/codec.py``, whose compiled
encoders read every field by construction.

The match is by type, not by name: a same-named field of another type
is not a reader (that is how ``ClientHello.client_id`` and
``SetupFailed.reason`` rode on ``BcastWrite.client_id`` and
``WriteReply.reason`` until wire version 7).  Within one function a
name has a type where the source gives it one:

* a parameter annotated with it (``message: WriteRequest``), and
  ``self`` in a wire type's own methods;
* an ``isinstance`` test on the name, anywhere in the function;
* an alias of a typed name (``envelope = message``);
* an element of an annotated container -- a ``for`` target, or what
  ``popleft()`` or ``pop()`` returns, unpacked by position
  (``self._write_queue: deque[tuple[str, WriteRequest]]``);
* a field of a typed value, by that field's annotation
  (``reply.pledge.stamp`` reads ``Seal.stamp``).

A name keeps the union of every type it is given in the function, so
the scan errs towards "read".  The four admin-plane types (ids 10-11
and 24-25) are exempt: their readers are operators and tests, not the
protocol.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Iterator

import pytest

from repro.net import codec

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ADMIN_PLANE = frozenset((10, 11, 24, 25))

#: Fields no protocol code reads that stay on the wire because the
#: benchmark's kernels build them; they retire with ROADMAP item 4a.
HARNESS_BUILT = {
    "44 ReadRequest.client_id":
        "benchmarks/harness/kernels.py builds the read request with it",
    "54 BcastSlaveList.master_id":
        "the broadcast.deliver_x kernel orders a slave-list announcement",
    "54 BcastSlaveList.slave_ids":
        "the broadcast.deliver_x kernel orders a slave-list announcement",
}

#: Wire dataclasses by name: what a field annotation or a source
#: annotation can name.
WIRE: dict[str, type] = {cls.__name__: cls for cls in codec._BY_TYPE
                         if dataclasses.is_dataclass(cls)}

# A type is a frozenset of terms: a wire class name, ("seq", element)
# or ("tup", (position, ...)), each part a type.
NONE: frozenset = frozenset()

#: Annotations whose subscript is the type of every element.
SEQUENCES = frozenset((
    "list", "deque", "set", "frozenset", "Iterable", "Iterator",
    "Sequence"))


def _terminal(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def annotation_type(node: ast.expr | None) -> frozenset:
    """The terms an annotation names (wire types only)."""
    if node is None:
        return NONE
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return annotation_type(ast.parse(node.value, mode="eval").body)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return annotation_type(node.left) | annotation_type(node.right)
    if isinstance(node, ast.Subscript):
        base = _terminal(node.value)
        args = (list(node.slice.elts) if isinstance(node.slice, ast.Tuple)
                else [node.slice])
        if base in ("Optional", "Union"):
            return frozenset().union(*map(annotation_type, args))
        if base in ("tuple", "Tuple"):
            if len(args) == 2 and isinstance(args[1], ast.Constant) \
                    and args[1].value is Ellipsis:
                return frozenset({("seq", annotation_type(args[0]))})
            return frozenset({("tup", tuple(map(annotation_type, args)))})
        if base in SEQUENCES:
            return frozenset({("seq", annotation_type(args[0]))})
        return NONE
    name = _terminal(node)
    return frozenset({name}) if name in WIRE else NONE


def field_type(cls_name: str, attr: str) -> frozenset:
    for field in dataclasses.fields(WIRE[cls_name]):
        if field.name == attr:
            return annotation_type(ast.parse(str(field.type),
                                             mode="eval").body)
    return NONE


def elements(types: frozenset) -> frozenset:
    """What iterating, or popping from, a value of ``types`` yields."""
    out: set = set()
    for term in types:
        if isinstance(term, tuple):
            out |= term[1] if term[0] == "seq" \
                else frozenset().union(*term[1])
    return frozenset(out)


def positions(types: frozenset, count: int) -> list[frozenset]:
    """Per target of a ``count``-way unpacking of a value of ``types``."""
    out: list[set] = [set() for _ in range(count)]
    for term in types:
        if isinstance(term, tuple) and term[0] == "tup" \
                and len(term[1]) == count:
            for slot, part in zip(out, term[1]):
                slot |= part
    return [frozenset(slot) for slot in out]


class _Function:
    """One function's names, typed to a fixpoint, and the field reads
    on them."""

    def __init__(self, node: ast.AST, outer: dict[str, frozenset],
                 self_attrs: dict[str, frozenset],
                 owner: str | None) -> None:
        self.env: dict[str, set] = {k: set(v) for k, v in outer.items()}
        self.self_attrs = self_attrs
        self.body = list(_own_nodes(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            for arg in params:
                self._bind(arg.arg, annotation_type(arg.annotation))
            if owner in WIRE and params:
                self._bind(params[0].arg, frozenset({owner}))
        for _ in range(10):  # a fixpoint; the cap only guards a cycle
            if not self._one_pass():
                break

    def _bind(self, name: str, types: frozenset) -> bool:
        known = self.env.setdefault(name, set())
        if types <= known:
            return False
        known |= types
        return True

    def _bind_target(self, target: ast.expr, types: frozenset) -> bool:
        if isinstance(target, ast.Name):
            return self._bind(target.id, types)
        if isinstance(target, (ast.Tuple, ast.List)):
            changed = False
            for sub, part in zip(target.elts,
                                 positions(types, len(target.elts))):
                changed |= self._bind_target(sub, part)
            return changed
        return False

    def _one_pass(self) -> bool:
        changed = False
        for node in self.body:
            if isinstance(node, ast.Call) and _terminal(node.func) \
                    == "isinstance" and len(node.args) == 2 \
                    and isinstance(node.args[0], ast.Name):
                classes = (node.args[1].elts
                           if isinstance(node.args[1], ast.Tuple)
                           else [node.args[1]])
                changed |= self._bind(node.args[0].id, frozenset(
                    name for name in map(_terminal, classes)
                    if name in WIRE))
            elif isinstance(node, ast.Assign):
                types = self.type_of(node.value)
                for target in node.targets:
                    changed |= self._bind_target(target, types)
            elif isinstance(node, (ast.For, ast.AsyncFor,
                                   ast.comprehension)):
                changed |= self._bind_target(
                    node.target, elements(self.type_of(node.iter)))
        return changed

    def type_of(self, node: ast.expr) -> frozenset:
        if isinstance(node, ast.Name):
            return frozenset(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            out = set(self.self_attrs.get(node.attr, ())) \
                if isinstance(node.value, ast.Name) \
                and node.value.id == "self" else set()
            for term in self.type_of(node.value):
                if isinstance(term, str):
                    out |= field_type(term, node.attr)
            return frozenset(out)
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("popleft", "pop"):
            return elements(self.type_of(node.func.value))
        return NONE

    def reads(self) -> Iterator[tuple[str, str]]:
        for node in self.body:
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                for term in self.type_of(node.value):
                    if isinstance(term, str) and any(
                            field.name == node.attr
                            for field in dataclasses.fields(WIRE[term])):
                        yield term, node.attr


def _own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``node``'s body, not descending into nested
    functions or classes (each is a scope of its own)."""
    roots = (node.body if isinstance(node.body, list) else [node.body]) \
        if hasattr(node, "body") else []
    stack = list(roots)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(current))


def self_attribute_types(tree: ast.Module) -> dict[str, frozenset]:
    """``self.NAME: T = ...`` and class-body ``NAME: T``, by name."""
    found: dict[str, set] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.AnnAssign):
            continue
        target = node.target
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            name = target.attr
        elif isinstance(target, ast.Name):
            name = target.id
        else:
            continue
        found.setdefault(name, set()).update(
            annotation_type(node.annotation))
    return {name: frozenset(types) for name, types in found.items()}


def typed_reads_in(tree: ast.Module,
                   self_attrs: dict[str, frozenset]) -> set[tuple[str, str]]:
    reads: set[tuple[str, str]] = set()

    def visit(node: ast.AST, outer: dict[str, frozenset],
              owner: str | None) -> None:
        scope = _Function(node, outer, self_attrs, owner)
        reads.update(scope.reads())
        env = {name: frozenset(types) for name, types in scope.env.items()}
        for child in scope.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                # Only a method's first parameter is the owner.
                visit(child, env,
                      owner if isinstance(node, ast.ClassDef) else None)
            elif isinstance(child, ast.ClassDef):
                visit(child, env, child.name)

    visit(tree, {}, None)
    return reads


def typed_reads() -> set[tuple[str, str]]:
    trees = [ast.parse(path.read_text(), str(path))
             for path in SRC.rglob("*.py")
             if path != SRC / "net" / "codec.py"]
    self_attrs: dict[str, frozenset] = {}
    for tree in trees:
        for name, types in self_attribute_types(tree).items():
            self_attrs[name] = self_attrs.get(name, NONE) | types
    reads: set[tuple[str, str]] = set()
    for tree in trees:
        reads |= typed_reads_in(tree, self_attrs)
    return reads


def unread_fields(reads: set[tuple[str, str]]) -> list[str]:
    unread = []
    for cls, wire_id in sorted(codec._BY_TYPE.items(),
                               key=lambda item: item[1]):
        if wire_id in ADMIN_PLANE or not dataclasses.is_dataclass(cls):
            continue
        unread.extend(f"{wire_id} {cls.__name__}.{field.name}"
                      for field in dataclasses.fields(cls)
                      if field.init and (cls.__name__, field.name)
                      not in reads)
    return unread


def test_every_wire_field_has_a_reader():
    assert unread_fields(typed_reads()) == sorted(HARNESS_BUILT)


def test_the_scan_reports_a_field_nobody_reads():
    # Guards the scan itself: drop one type's reads of a field and only
    # that type's field is reported, though another type has a field of
    # the same name that is read.
    reads = typed_reads() - {("Pledge", "slave_id")}
    assert unread_fields(reads) == sorted(
        ["33 Pledge.slave_id", *HARNESS_BUILT])


def _reads(source: str) -> set[tuple[str, str]]:
    tree = ast.parse(source)
    return typed_reads_in(tree, self_attribute_types(tree))


@pytest.mark.parametrize("source", [
    # an annotated parameter
    "def f(request: WriteRequest):\n"
    "    return request.request_id\n",
    # an isinstance narrowing
    "def f(message):\n"
    "    if isinstance(message, (KeepAlive, WriteRequest)):\n"
    "        return message.request_id\n",
    # an alias of a narrowed name
    "def f(message):\n"
    "    if isinstance(message, WriteRequest):\n"
    "        request = message\n"
    "        return request.request_id\n",
    # an annotated container's element, unpacked
    "class Master:\n"
    "    def __init__(self):\n"
    "        self.queue: deque[tuple[str, WriteRequest]] = deque()\n"
    "    def pump(self):\n"
    "        sender, request = self.queue.popleft()\n"
    "        return request.request_id\n",
    # an annotated field chain, then a loop over it
    "def f(batch: AuditBatch):\n"
    "    for pledge in batch.pledges:\n"
    "        pledge.stamp.version\n"
    "    return [p.request_id for p in batch.pledges]\n",
], ids=["param", "isinstance", "alias", "element", "chain"])
def test_each_binding_rule_finds_a_read(source):
    reads = _reads(source)
    assert ("WriteRequest", "request_id") in reads \
        or {("Pledge", "request_id"), ("VersionStamp", "version")} <= reads


def test_a_same_named_field_of_another_type_is_no_read():
    reads = _reads("def f(payload: BcastWrite, reply: ReadReply, x):\n"
                   "    x.request_id\n"
                   "    reply.pledge.stamp\n"
                   "    return payload.client_id\n")
    assert reads == {("BcastWrite", "client_id"), ("ReadReply", "pledge"),
                     ("Seal", "stamp"), ("Pledge", "stamp")}
