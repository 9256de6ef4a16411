"""Wire-registry extraction and the golden lockfile (PL201's substrate).

The codec's extension registry is *append-only by comment*: ids 1-31
are hand-assigned infrastructure carriers in
``repro.net.codec._iter_registrations`` and ids 32+ map positionally
onto ``repro.core.messages.WIRE_MESSAGE_TYPES``.  Because the dataclass
codec serialises init-fields *in declaration order*, the wire format is
a function of three things nothing type-checks: the id assignments, the
tuple order, and each class's field order.  This module makes all three
machine-readable:

* :func:`extract_registry` statically evaluates the registration
  generator against a :class:`~tools.protolint.project.ProjectModel`
  -- explicit ``yield (N, Cls, ...)`` entries plus the
  ``for offset, cls in enumerate(WIRE_MESSAGE_TYPES)`` positional tail
  (sliced where it steps over a retired id) -- and resolves every class
  to its init-field order;
* :func:`format_lock` / :func:`parse_lock` read and write
  ``tools/protolint/wire_registry.lock``, the committed golden copy.

The lock format is line-oriented and diff-friendly on purpose: one
``id <TAB> TypeName <TAB> field,field,...`` line per wire id, so a
review of an intentional append is one added line and any *edit* to an
existing line is visibly a wire-format break.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from tools.protolint.names import terminal_name
from tools.protolint.project import ModuleInfo, ProjectModel

LOCK_HEADER = "# protolint wire-registry lock v1"

#: Marker for classes the model could not resolve (e.g. the defining
#: module was outside the linted paths).  Never written to the lock.
UNRESOLVED = ("?",)


@dataclass(slots=True)
class WireEntry:
    """One registered wire id, as extracted from the live tree."""

    wire_id: int
    type_name: str
    #: Declaration-order init fields (the exact wire tuple), or
    #: :data:`UNRESOLVED` when the class body was not available.
    fields: tuple[str, ...]
    #: Anchor for violations: where this registration is spelt.
    path: str
    lineno: int


@dataclass(slots=True)
class RegistryExtraction:
    """Everything PL201 needs to judge the registry."""

    entries: list[WireEntry]
    codec_path: str
    codec_lineno: int  # the _iter_registrations def, for global issues
    problems: list[tuple[str, str, int]]  # (message, path, lineno)


def find_codec_module(model: ProjectModel) -> ModuleInfo | None:
    """The module that defines ``_iter_registrations``, if linted."""
    for info in model.by_path.values():
        if "_iter_registrations" in info.functions:
            return info
    return None


def extract_registry(model: ProjectModel) -> RegistryExtraction | None:
    """Statically evaluate the codec's registration generator.

    Returns ``None`` when no codec module is in the model (the lint run
    did not cover it); rules must treat that as "unknown", not clean.
    """
    codec = find_codec_module(model)
    if codec is None:
        return None
    gen = codec.functions["_iter_registrations"]
    extraction = RegistryExtraction(
        entries=[], codec_path=codec.path,
        codec_lineno=gen.node.lineno, problems=[])
    for stmt in gen.node.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Yield):
            _explicit_entry(stmt.value, codec, model, extraction)
        elif isinstance(stmt, ast.For):
            _positional_tail(stmt, codec, model, extraction)
    extraction.entries.sort(key=lambda e: e.wire_id)
    return extraction


def _explicit_entry(node: ast.Yield, codec: ModuleInfo,
                    model: ProjectModel,
                    extraction: RegistryExtraction) -> None:
    """Record one ``yield (N, Cls, ...)`` registration."""
    value = node.value
    if not (isinstance(value, ast.Tuple) and len(value.elts) >= 2):
        return
    id_node, cls_node = value.elts[0], value.elts[1]
    if not (isinstance(id_node, ast.Constant)
            and isinstance(id_node.value, int)):
        extraction.problems.append(
            ("registration id is not an int literal (the registry must "
             "be statically checkable)", codec.path, value.lineno))
        return
    cls_name = terminal_name(cls_node)
    if cls_name is None:
        extraction.problems.append(
            (f"registration {id_node.value} does not name a class "
             "directly", codec.path, value.lineno))
        return
    extraction.entries.append(WireEntry(
        wire_id=id_node.value, type_name=cls_name,
        fields=_fields_for(cls_name, codec, model),
        path=codec.path, lineno=value.lineno))


def _positional_tail(node: ast.For, codec: ModuleInfo,
                     model: ProjectModel,
                     extraction: RegistryExtraction) -> None:
    """Record the ``for offset, cls in enumerate(TUPLE): yield (BASE +
    offset, cls, ...)`` positional block; ``TUPLE`` may be sliced with
    int literals (``TUPLE[:21]``), which is how a retired id is skipped.
    Any other loop is a problem: skipped, its ids would be missing from
    the extraction, and so from a lock written from it."""
    if not (isinstance(node.iter, ast.Call)
            and terminal_name(node.iter.func) == "enumerate"
            and node.iter.args):
        extraction.problems.append(
            ("a loop in _iter_registrations must be `for offset, cls in "
             "enumerate(TUPLE[a:b])`", codec.path, node.lineno))
        return
    target = node.iter.args[0]
    window = slice(None)
    if isinstance(target, ast.Subscript):
        window = _literal_slice(target.slice)
        if window is None:
            extraction.problems.append(
                ("a positional block may slice its tuple only with int "
                 "literals", codec.path, node.lineno))
            return
        target = target.value
    tuple_name = terminal_name(target)
    if tuple_name is None:
        extraction.problems.append(
            ("a positional block must enumerate a named tuple",
             codec.path, node.lineno))
        return
    base = _positional_base(node)
    if base is None:
        extraction.problems.append(
            (f"cannot determine the id base of the `{tuple_name}` "
             "positional block", codec.path, node.lineno))
        return
    members, origin = _resolve_name_tuple(tuple_name, codec, model)
    if members is None:
        extraction.problems.append(
            (f"`{tuple_name}` could not be resolved to a module-level "
             "tuple of classes (is its defining module in the lint "
             "paths?)", codec.path, node.lineno))
        return
    assert origin is not None
    for offset, cls_name in enumerate(members[window]):
        cls = model.resolve_class(origin, cls_name)
        extraction.entries.append(WireEntry(
            wire_id=base + offset, type_name=cls_name,
            fields=cls.init_fields if cls is not None else UNRESOLVED,
            path=cls.path if cls is not None else origin.path,
            lineno=cls.lineno if cls is not None else node.lineno))


def _literal_slice(node: ast.expr) -> slice | None:
    """``slice(a, b)`` for a ``[a:b]`` subscript whose given bounds are
    int literals, else ``None``."""
    if not isinstance(node, ast.Slice) or node.step is not None:
        return None
    bounds: list[int | None] = []
    for bound in (node.lower, node.upper):
        if bound is None:
            bounds.append(None)
        elif isinstance(bound, ast.Constant) \
                and isinstance(bound.value, int):
            bounds.append(bound.value)
        else:
            return None
    return slice(*bounds)


def _positional_base(node: ast.For) -> int | None:
    """The ``BASE`` in ``yield (BASE + offset, ...)`` inside the loop."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Yield):
            continue
        value = sub.value
        if not (isinstance(value, ast.Tuple) and value.elts):
            continue
        id_expr = value.elts[0]
        if isinstance(id_expr, ast.BinOp) and isinstance(id_expr.op, ast.Add):
            for side in (id_expr.left, id_expr.right):
                if isinstance(side, ast.Constant) \
                        and isinstance(side.value, int):
                    return side.value
    return None


def _resolve_name_tuple(
    name: str, origin: ModuleInfo, model: ProjectModel,
) -> tuple[tuple[str, ...] | None, ModuleInfo | None]:
    """Resolve ``name`` (possibly imported) to a module-level tuple of
    class names, returning (members, defining module)."""
    local = origin.name_tuples.get(name)
    if local is not None:
        return local, origin
    target = origin.aliases.get(name)
    if target is None or "." not in target:
        return None, None
    module_part, _, attr = target.rpartition(".")
    module = model.module(module_part)
    if module is None:
        return None, None
    members = module.name_tuples.get(attr)
    return (members, module) if members is not None else (None, None)


def _fields_for(cls_name: str, codec: ModuleInfo,
                model: ProjectModel) -> tuple[str, ...]:
    cls = model.resolve_class(codec, cls_name)
    return cls.init_fields if cls is not None else UNRESOLVED


def format_lock(entries: list[WireEntry]) -> str:
    """Render the committed lock text (deterministic, diff-friendly)."""
    lines = [
        LOCK_HEADER,
        "# One line per wire id: id<TAB>TypeName<TAB>init-field order.",
        "# APPEND-ONLY.  Editing or removing a line is a wire-format",
        "# break; regenerate intentional appends with:",
        "#   python -m tools.protolint --update-lock src/",
    ]
    for entry in sorted(entries, key=lambda e: e.wire_id):
        lines.append(
            f"{entry.wire_id}\t{entry.type_name}\t"
            + ",".join(entry.fields))
    return "\n".join(lines) + "\n"


def parse_lock(text: str) -> dict[int, tuple[str, tuple[str, ...]]] | None:
    """Parse lock text into ``id -> (type name, fields)``.

    Returns ``None`` on malformed text so PL201 can report the lock as
    corrupt instead of treating the registry as unlocked.
    """
    locked: dict[int, tuple[str, tuple[str, ...]]] = {}
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # Split the raw line: a zero-field entry (ContentStore's custom
        # codec) legitimately ends in a trailing tab.
        parts = line.split("\t")
        if len(parts) != 3:
            return None
        raw_id, type_name, raw_fields = parts
        try:
            wire_id = int(raw_id)
        except ValueError:
            return None
        if wire_id in locked:
            return None
        fields = tuple(f for f in raw_fields.split(",") if f)
        locked[wire_id] = (type_name, fields)
    return locked


__all__ = [
    "LOCK_HEADER",
    "RegistryExtraction",
    "UNRESOLVED",
    "WireEntry",
    "extract_registry",
    "find_codec_module",
    "format_lock",
    "parse_lock",
]
