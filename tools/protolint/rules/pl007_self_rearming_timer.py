"""PL007: no self-re-arming timers -- declare periodic work with
``Node.every``.

Invariant (paper §3, §3.1, §3.5: the trusted set rides out benign
crashes): a ``Node.after`` timer belongs to the node life that armed
it -- it never fires once the node has crashed, not even after
recovery.  A method that keeps itself going by passing *itself* to
``.after(...)`` is therefore a chain that a crash ends for good,
unless someone remembers to restart it from ``on_recover`` *and* to
keep the restarted chain from running beside a stale one.  That
pattern was hand-rolled five different ways (two epoch counters, a
cancel handle, an unguarded tick, a per-request retransmit chain that
nothing re-armed) and cost three recovery bugs before ``Node.every``
replaced it: the round is declared once, stops at the crash and is
restarted by ``Node.recover()`` as exactly one chain.  The same shape
with arguments (``self.after(1.0, self._audit, unknown, attempts + 1)``)
is state that lives only in the timer: hold it on the node instead.

Flags, inside ``src/repro/core/``, ``src/repro/shard/`` and
``src/repro/broadcast/``, a call ``<anything>.after(delay, self.m,
...)`` in the body of method ``m`` itself (the callback is the second
positional argument, or ``callback=``).

Not flagged: a *deferral* -- the ``.after(...)`` statement is directly
followed by ``return``, so the timer stands in for this very call
("not ready: the same call again later") and the method did nothing
else.  What a deferral waits on must be held elsewhere: a queue the
recovery path drains (``MasterServer._pump_writes``) or the requester,
who retries (the master's 0.25 s / 0.5 s request deferrals).  Timers
whose callback is another method, and anything outside the three
packages (``Node._run_every`` lives in ``src/repro/sim/``), are not
this rule's business.

Fix: ``self.every(interval, self.m)`` in ``start()`` and delete the
re-arming tail.  For a chain that must stay hand-rolled, say why:
``# protolint: disable-next-line=PL007`` with the reason beside it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.protolint.engine import FileContext
from tools.protolint.registry import Rule, Violation, register


def _arms_itself(node: ast.AST, method: str) -> bool:
    """Is ``node`` a ``<x>.after(delay, self.<method>, ...)`` call?"""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "after"):
        return False
    callback = node.args[1] if len(node.args) >= 2 else next(
        (k.value for k in node.keywords if k.arg == "callback"), None)
    return (isinstance(callback, ast.Attribute)
            and isinstance(callback.value, ast.Name)
            and callback.value.id == "self"
            and callback.attr == method)


def _deferrals(method: ast.AST) -> set[ast.AST]:
    """The ``.after`` calls whose statement is followed by ``return``."""
    found: set[ast.AST] = set()
    for node in ast.walk(method):
        for block in ("body", "orelse", "finalbody"):
            statements = getattr(node, block, None)
            if not isinstance(statements, list):
                continue
            for statement, following in zip(statements, statements[1:]):
                if isinstance(following, ast.Return) and isinstance(
                        statement, (ast.Expr, ast.Assign)):
                    found.add(statement.value)
    return found


@register
class NoSelfRearmingTimer(Rule):
    code = "PL007"
    name = "self-re-arming-timer"
    scope = ("src/repro/core/", "src/repro/shard/", "src/repro/broadcast/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for method in ast.walk(ctx.tree):
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            deferrals = _deferrals(method)
            for node in ast.walk(method):
                if _arms_itself(node, method.name) \
                        and node not in deferrals:
                    yield self.violation(
                        ctx, node,
                        f"`{method.name}` re-arms itself with .after(): a "
                        "crash ends the chain for good; declare periodic "
                        "work with `Node.every` (and hold retry state on "
                        "the node, not in the timer's arguments)")
