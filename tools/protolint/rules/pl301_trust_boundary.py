"""PL301: untrusted payloads reach acceptance sinks only via verification.

Invariant (the paper's core safety argument, Sections 3.2-3.4): slaves
are untrusted, so everything a slave hands you -- read replies,
pledges, relayed version stamps, accusations built from them -- must
pass signature verification (scheme-dispatch ``verify`` /
``verify_many``) or a constant-time hash comparison *before* it can
change accepted state.  A code path that commits an unverified payload
is precisely the bug class the protocol exists to exclude, and nothing
at runtime distinguishes it from the verified path until an adversary
exercises it.

The pass is intra-procedural and runs over every *handler* -- a method
named ``_handle_*``, ``deliver_*``, ``on_message`` or
``handle_protocol_message``:

* **sources**: parameters annotated with an untrusted-origin wire type
  (``ReadReply``, ``SlaveUpdate``, ``SlaveSnapshot``, ``KeepAlive``,
  ``ResyncRequest``, ``Pledge``, ``Accusation``, ``AuditSubmission``,
  ``AuditBatch``),
  plus the ``message`` parameter of the generic dispatchers;
* **propagation**: assignment, iterating a tainted payload (``for op
  in update.ops_wire``), ``with ... as`` binding, and storing a
  tainted value into a local's field taints the local;
* **sinks**: calls to ``apply_write`` / ``_adopt_stamp`` /
  ``_finish_read`` / ``broadcast`` with a tainted argument, and
  assignment of a tainted value to ``self.store`` / ``self.version`` /
  ``self.latest_stamp``;
* **guards**: a call to any function in the *verifier closure* with a
  tainted argument.  The closure is the fixpoint over the project call
  graph rooted at ``verify`` / ``verify_many`` / ``verify_signature``
  / ``constant_time_equals`` -- so ``Slave._stamp_ok`` and
  ``Master.evaluate_pledge`` count as guards because they bottom out
  in scheme-dispatch verification.

Messages that only trusted nodes originate (master-signed
``WriteReply``/``DoubleCheckReply``/``SlaveAssignment``/... and the
masters' total-order broadcast payloads) are deliberately *not*
sources; taint would add noise without a threat model behind it.
Buffering a tainted value (pending-update dicts, reply maps, audit
queues) is not a sink -- only acceptance is.

Fix: verify before committing, mirroring ``Slave._handle_update``.
Suppress only with a comment naming the trusted origin of the data.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from tools.protolint.engine import ProjectContext
from tools.protolint.names import terminal_name
from tools.protolint.project import ProjectModel
from tools.protolint.registry import ProjectRule, Violation, register

#: Wire types an untrusted or unauthenticated peer originates.
UNTRUSTED_TYPES = frozenset({
    "ReadReply", "SlaveUpdate", "SlaveSnapshot", "KeepAlive",
    "ResyncRequest", "Pledge", "Accusation", "AuditSubmission",
    "AuditBatch",
})

#: Handler-name shapes whose parameters are trust boundaries.
_HANDLER_PREFIXES = ("_handle_", "deliver_")
_GENERIC_HANDLERS = frozenset({"on_message", "handle_protocol_message"})

#: Call sinks: accepting/committing operations.
SINK_CALLS = frozenset({
    "apply_write", "_adopt_stamp", "_finish_read", "broadcast",
})

#: ``self.<attr>`` assignments that constitute acceptance.
SINK_ATTRS = frozenset({"store", "version", "latest_stamp"})

#: Roots of the verifier closure.
VERIFIER_ROOTS = frozenset({
    "verify", "verify_many", "verify_signature", "constant_time_equals",
})


def verifier_closure(model: ProjectModel) -> frozenset[str]:
    """Function names that (transitively) perform verification.

    Fixpoint over the receiver-insensitive call-name graph: a function
    that calls a verifier is a verifier.  Over-approximate by design --
    a guard that *might* verify beats flagging a guarded flow.
    """
    verifiers = set(VERIFIER_ROOTS)
    functions = model.functions()
    changed = True
    while changed:
        changed = False
        for fn in functions:
            if fn.name not in verifiers and fn.calls & verifiers:
                verifiers.add(fn.name)
                changed = True
    return frozenset(verifiers)


def _is_handler(name: str) -> bool:
    return name in _GENERIC_HANDLERS \
        or any(name.startswith(p) for p in _HANDLER_PREFIXES)


def _tainted_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    tainted: set[str] = set()
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is not None \
                and terminal_name(arg.annotation) in UNTRUSTED_TYPES:
            tainted.add(arg.arg)
        elif arg.arg == "message" and fn.name in _GENERIC_HANDLERS:
            tainted.add(arg.arg)
    return tainted


@register
class TrustBoundaryTaint(ProjectRule):
    code = "PL301"
    name = "trust-boundary-taint"
    scope = ()

    def __init__(self) -> None:
        self._project: ProjectContext | None = None

    def reset(self, project: ProjectContext) -> None:
        self._project = project

    def finalize(self, model: ProjectModel) -> Iterator[Violation]:
        verifiers = verifier_closure(model)
        for info in model.by_path.values():
            if not self.applies_to(info.path, self._project):
                continue
            for fn in info.functions.values():
                if not _is_handler(fn.name):
                    continue
                tainted = _tainted_params(fn.node)
                if tainted:
                    yield from self._analyze(info.path, fn.node,
                                             tainted, verifiers)

    # -- intra-procedural pass ------------------------------------------

    def _analyze(self, path: str,
                 fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 tainted: set[str],
                 verifiers: frozenset[str]) -> Iterator[Violation]:
        state = _TaintState(tainted=set(tainted))
        for stmt in fn.body:
            yield from self._stmt(path, fn, stmt, state, verifiers)

    def _stmt(self, path: str, fn: ast.AST, stmt: ast.stmt,
              state: "_TaintState",
              verifiers: frozenset[str]) -> Iterator[Violation]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        yield from self._calls(path, fn, stmt, state, verifiers)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            yield from self._assignment(path, fn, stmt, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Iterating a tainted payload taints the loop variable
            # (``for op in update.ops_wire``).
            yield from self._bind(path, fn, stmt.target,
                                  _expr_tainted(stmt.iter, state.tainted),
                                  stmt, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    yield from self._bind(
                        path, fn, item.optional_vars,
                        _expr_tainted(item.context_expr, state.tainted),
                        stmt, state)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                yield from self._stmt(path, fn, child, state, verifiers)
            elif isinstance(child, ast.excepthandler):
                for sub in child.body:
                    yield from self._stmt(path, fn, sub, state, verifiers)

    def _calls(self, path: str, fn: ast.AST, stmt: ast.stmt,
               state: "_TaintState",
               verifiers: frozenset[str]) -> Iterator[Violation]:
        """Guard and sink calls directly inside this statement (nested
        statements handle their own)."""
        for node in _own_exprs(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name is None:
                continue
            args_tainted = any(
                _expr_tainted(arg, state.tainted)
                for arg in (*node.args,
                            *(kw.value for kw in node.keywords)))
            if not args_tainted:
                continue
            if name in verifiers:
                state.guarded = True
            elif name in SINK_CALLS and not state.guarded:
                fn_name = getattr(fn, "name", "?")
                yield Violation(
                    rule=self.code, path=path, line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        f"untrusted payload reaches acceptance sink "
                        f"`{name}()` in handler {fn_name!r} without "
                        "passing verify/verify_many/"
                        "constant_time_equals first; verify the "
                        "signature or hash before committing"))

    def _assignment(self, path: str, fn: ast.AST, stmt: ast.stmt,
                    state: "_TaintState") -> Iterator[Violation]:
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return
            value, targets = stmt.value, [stmt.target]
        else:  # AugAssign
            value, targets = stmt.value, [stmt.target]
        value_tainted = _expr_tainted(value, state.tainted)
        for target in targets:
            yield from self._bind(path, fn, target, value_tainted,
                                  stmt, state)

    def _bind(self, path: str, fn: ast.AST, target: ast.expr,
              value_tainted: bool, stmt: ast.stmt,
              state: "_TaintState") -> Iterator[Violation]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                yield from self._bind(path, fn, el, value_tainted,
                                      stmt, state)
            return
        if isinstance(target, ast.Name):
            if value_tainted:
                state.tainted.add(target.id)
            else:
                state.tainted.discard(target.id)
            return
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self" \
                    and target.attr in SINK_ATTRS and value_tainted \
                    and not state.guarded:
                fn_name = getattr(fn, "name", "?")
                yield Violation(
                    rule=self.code, path=path, line=stmt.lineno,
                    col=stmt.col_offset + 1,
                    message=(
                        f"unverified untrusted payload assigned to "
                        f"`self.{target.attr}` in handler {fn_name!r}; "
                        "state acceptance requires a prior "
                        "verify/constant_time_equals guard"))
            elif isinstance(base, ast.Name) and value_tainted:
                # Storing into a local's field taints the local
                # (attempt.replies[...] = reply patterns hit the
                # Subscript branch below; x.field = reply hits here).
                state.tainted.add(base.id)
            return
        if isinstance(target, ast.Subscript) and value_tainted:
            root = target.value
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id != "self":
                state.tainted.add(root.id)


@dataclass(slots=True)
class _TaintState:
    """Mutable per-handler taint facts."""

    tainted: set[str]
    guarded: bool = False


def _expr_tainted(expr: ast.expr, tainted: set[str]) -> bool:
    """An expression is tainted when any name it reads is tainted."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
    return False


def _own_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Expression nodes belonging to ``stmt`` itself (not to nested
    statements, which are visited by their own ``_stmt`` pass)."""
    stack: list[ast.AST] = []
    for child in ast.iter_child_nodes(stmt):
        if not isinstance(child, (ast.stmt, ast.excepthandler)):
            stack.append(child)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
