"""PL202: every frozen dataclass in the messages module is on the wire.

Invariant: ``repro.core.messages`` is the protocol vocabulary; its
frozen dataclasses *are* the messages, and ``WIRE_MESSAGE_TYPES`` is
the single place that makes them encodable (ids 32+ positional).  A
frozen message dataclass that is not listed there works perfectly in
the in-process simulator and then raises ``UnknownWireType`` the first
time the socket stack tries to send it -- a gap the sim-first test
suite never exercises.  Catching it at lint time keeps "runs in sim"
and "runs over TCP" the same property.

Flags: a ``@dataclass(frozen=True)`` class defined in the module that
assigns ``WIRE_MESSAGE_TYPES``, missing from that tuple.

Not flagged: non-frozen dataclasses (mutable bookkeeping is node-local
by design and must *not* be a wire type), and classes in any other
module (infrastructure carriers get explicit codec ids instead).

Fix: **append** the class to the end of ``WIRE_MESSAGE_TYPES`` (never
insert -- ids are positional) and run ``--update-lock``; or make the
class non-frozen if it is genuinely node-local state.
"""

from __future__ import annotations

from typing import Iterator

from tools.protolint.project import ProjectModel
from tools.protolint.registry import ProjectRule, Violation, register

_TUPLE_NAME = "WIRE_MESSAGE_TYPES"


@register
class UnregisteredWireType(ProjectRule):
    code = "PL202"
    name = "unregistered-wire-type"
    scope = ()

    def finalize(self, model: ProjectModel) -> Iterator[Violation]:
        for info in model.by_path.values():
            registered = info.name_tuples.get(_TUPLE_NAME)
            if registered is None:
                continue
            listed = set(registered)
            for cls in info.classes.values():
                if not (cls.is_dataclass and cls.frozen):
                    continue
                if cls.name in listed:
                    continue
                yield Violation(
                    rule=self.code, path=info.path, line=cls.lineno,
                    col=1,
                    message=(
                        f"frozen message dataclass {cls.name} is not in "
                        f"{_TUPLE_NAME}: it cannot cross the socket "
                        "transport (UnknownWireType at runtime); append "
                        "it to the end of the tuple and run "
                        "--update-lock, or un-freeze it if it is "
                        "node-local state"))
