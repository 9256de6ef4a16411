"""PL006: ``ProtocolConfig`` fields referenced by name must exist.

Invariant: the system config (``repro.core.config.ProtocolConfig``) is
the single source of protocol parameters, and it is threaded through
every node as ``self.config``.  A typo'd field (``config.max_latancy``)
or a keyword for a field that was renamed away does not fail until the
exact code path runs -- in a probabilistic simulation that can be
never.  This rule cross-checks every by-name reference against the
dataclass definition parsed from ``src/repro/core/config.py``.

Flags:

* unknown keyword arguments in ``ProtocolConfig(...)`` calls, and in
  ``fast_protocol_config(...)`` calls, whose keywords are forwarded to
  the constructor;
* unknown attribute reads/writes on config-shaped expressions -- a bare
  ``config`` / ``cfg`` name or any ``<obj>.config`` attribute;
* unknown names in ``dataclasses.replace(<config>, field=...)`` and
  ``getattr(<config>, "field")`` with a literal name.

If the config module cannot be located (linting a file in isolation),
the rule is inert rather than guessing.

Fix: spell the field as declared, or add the field to
``ProtocolConfig``.  A non-config variable that happens to be called
``config`` can be renamed or suppressed with
``# protolint: disable=PL006``.
"""

from __future__ import annotations

import ast
import difflib
from typing import Iterator

from tools.protolint.engine import FileContext
from tools.protolint.names import terminal_name
from tools.protolint.registry import Rule, Violation, register

_CONFIG_NAMES = {"config", "cfg", "protocol_config"}

#: Callables whose keyword arguments are ``ProtocolConfig`` fields.
_CONSTRUCTORS = {"ProtocolConfig", "fast_protocol_config"}

#: Attributes any object answers; never worth flagging.
_ALWAYS_OK_PREFIX = "__"


def _is_config_expr(node: ast.expr) -> bool:
    """Heuristic: does this expression denote the protocol config?"""
    if isinstance(node, ast.Name):
        return node.id in _CONFIG_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _CONFIG_NAMES
    return False


@register
class ConfigFieldsExist(Rule):
    code = "PL006"
    name = "config-fields-exist"
    scope = ("src/", "benchmarks/", "examples/")

    def _known(self, ctx: FileContext) -> frozenset[str] | None:
        fields = ctx.project.config_fields
        if fields is None:
            return None
        return fields | ctx.project.config_methods

    def _bad_name(self, known: frozenset[str], name: str) -> bool:
        return not name.startswith(_ALWAYS_OK_PREFIX) and name not in known

    def _suggest(self, known: frozenset[str], name: str) -> str:
        close = difflib.get_close_matches(name, known, n=1)
        return f" (did you mean {close[0]!r}?)" if close else ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        known = self._known(ctx)
        if known is None:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, known, node)
            elif isinstance(node, ast.Attribute):
                if _is_config_expr(node.value) and self._bad_name(
                        known, node.attr):
                    yield self.violation(
                        ctx, node,
                        f"unknown ProtocolConfig field `{node.attr}`"
                        f"{self._suggest(known, node.attr)}")

    def _check_call(self, ctx: FileContext, known: frozenset[str],
                    node: ast.Call) -> Iterator[Violation]:
        func_name = terminal_name(node.func)
        if func_name in _CONSTRUCTORS:
            for keyword in node.keywords:
                if keyword.arg is not None and self._bad_name(
                        known, keyword.arg):
                    yield self.violation(
                        ctx, keyword.value,
                        f"{func_name}() has no field `{keyword.arg}`"
                        f"{self._suggest(known, keyword.arg)}")
        elif func_name == "replace" and node.args and _is_config_expr(
                node.args[0]):
            for keyword in node.keywords:
                if keyword.arg is not None and self._bad_name(
                        known, keyword.arg):
                    yield self.violation(
                        ctx, keyword.value,
                        f"replace() sets unknown ProtocolConfig field "
                        f"`{keyword.arg}`{self._suggest(known, keyword.arg)}")
        elif func_name == "getattr" and len(node.args) >= 2 \
                and _is_config_expr(node.args[0]) \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            name = node.args[1].value
            if self._bad_name(known, name):
                yield self.violation(
                    ctx, node.args[1],
                    f"getattr() reads unknown ProtocolConfig field "
                    f"`{name}`{self._suggest(known, name)}")
