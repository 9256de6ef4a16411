"""Section 4 variants as a reusable policy.

The two variants the paper sketches are implemented in the protocol
itself -- security levels in :meth:`repro.core.client.Client.submit_read`
(the table is :attr:`repro.core.config.ProtocolConfig.security_levels`)
and quorum reads via :attr:`repro.core.config.ProtocolConfig.read_quorum`.
This module provides the policy layer applications use to drive the
first: :class:`SecurityLevelPolicy` classifies queries into levels (the
"further refinement" that "assigns even more security levels for read
operations and sets the double-check probability based on the read's
security level").
"""

from __future__ import annotations

from typing import Callable

from repro.content.queries import ReadQuery
from repro.core.config import ProtocolConfig


class SecurityLevelPolicy:
    """Maps each read query to a named security level.

    Rules are ``(predicate, level)`` pairs checked in order; the first
    match wins, and ``default_level`` applies when none match.  Levels
    must exist in the config's ``security_levels`` table.
    """

    def __init__(self, config: ProtocolConfig,
                 default_level: str = "normal") -> None:
        if default_level not in config.security_levels:
            raise ValueError(
                f"default level {default_level!r} not in config levels "
                f"{sorted(config.security_levels)}"
            )
        self.config = config
        self.default_level = default_level
        self._rules: list[tuple[Callable[[ReadQuery], bool], str]] = []

    def add_rule(self, predicate: Callable[[ReadQuery], bool],
                 level: str) -> "SecurityLevelPolicy":
        if level not in self.config.security_levels:
            raise ValueError(
                f"level {level!r} not in config levels "
                f"{sorted(self.config.security_levels)}"
            )
        self._rules.append((predicate, level))
        return self

    def level_for(self, query: ReadQuery) -> str:
        for predicate, level in self._rules:
            if predicate(query):
                return level
        return self.default_level

    def probability_for(self, query: ReadQuery) -> float:
        return self.config.security_levels[self.level_for(query)]
