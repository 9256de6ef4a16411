"""Byzantine slave behaviour strategies.

The threat model (Sections 2-3): slaves are "only marginally trusted" and
may return arbitrary wrong answers, but they *cannot forge signatures* of
masters or other slaves, and masters/the auditor are trusted.  Every
strategy here therefore manipulates only what a real malicious slave
controls: the result it computes, the pledge it signs over that result,
and whether it answers at all.

A strategy is attached to a slave at construction; honest slaves use
:class:`Honest`.  Strategies see the query, the correct result and the
slave's current version, and return the (possibly corrupted) result to
serve.  Corruption is deterministic given the strategy's RNG stream, so
runs reproduce.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.content.queries import ReadQuery

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids a runtime cycle
    from repro.content.store import ContentStore


class AdversaryStrategy:
    """Base: honest pass-through.  Subclasses override :meth:`corrupt`."""

    name = "honest"

    def __init__(self, rng: random.Random | None = None) -> None:
        self.rng = rng or random.Random(0)
        self.lies_told = 0

    def corrupt(self, query: ReadQuery, correct_result: Any,
                version: int, client_id: str) -> Any:
        """Return the result the slave will serve (and pledge)."""
        return correct_result

    def should_refuse(self, query: ReadQuery, client_id: str) -> bool:
        """Whether to silently drop the request (denial of service)."""
        return False

    def _wrong_answer(self, query: ReadQuery, correct_result: Any) -> Any:
        """A deterministic wrong-but-plausible answer for this query.

        Derived from the request hash so that *colluding* slaves sharing a
        strategy seed produce the *same* lie -- which is exactly the
        collusion the quorum-read variant (Section 4) must defeat.
        """
        self.lies_told += 1
        tag = query.request_hash()[:8]
        return {"forged": True, "tag": tag}


class Honest(AdversaryStrategy):
    """No misbehaviour."""

    name = "honest"


class AlwaysLie(AdversaryStrategy):
    """Corrupt every single answer.  Caught almost immediately."""

    name = "always-lie"

    def corrupt(self, query: ReadQuery, correct_result: Any,
                version: int, client_id: str) -> Any:
        return self._wrong_answer(query, correct_result)


class ProbabilisticLie(AdversaryStrategy):
    """Corrupt each answer independently with probability ``lie_rate``.

    The stealthy adversary for experiment E1: detection latency scales as
    ``1 / (p * q)`` where ``p`` is the double-check probability and ``q``
    this lie rate.
    """

    name = "probabilistic-lie"

    def __init__(self, lie_rate: float,
                 rng: random.Random | None = None) -> None:
        super().__init__(rng)
        if not 0.0 <= lie_rate <= 1.0:
            raise ValueError(f"lie rate must be in [0, 1], got {lie_rate}")
        self.lie_rate = lie_rate

    def corrupt(self, query: ReadQuery, correct_result: Any,
                version: int, client_id: str) -> Any:
        if self.rng.random() < self.lie_rate:
            return self._wrong_answer(query, correct_result)
        return correct_result


class TargetedLie(AdversaryStrategy):
    """Lie only to specific victim clients; serve everyone else honestly.

    Defeats naive reputation schemes; caught only by the victims'
    double-checks or by the audit (every pledge is audited regardless of
    which client it was served to).
    """

    name = "targeted-lie"

    def __init__(self, victim_client_ids: set[str],
                 lie_rate: float = 1.0,
                 rng: random.Random | None = None) -> None:
        super().__init__(rng)
        self.victims = set(victim_client_ids)
        self.lie_rate = lie_rate

    def corrupt(self, query: ReadQuery, correct_result: Any,
                version: int, client_id: str) -> Any:
        if client_id in self.victims and self.rng.random() < self.lie_rate:
            return self._wrong_answer(query, correct_result)
        return correct_result


class StaleServe(AdversaryStrategy):
    """Serve results computed against an old version of the content.

    Modelled by answering from a frozen snapshot the slave keeps from the
    moment the strategy activates.  Because the pledge must carry a
    *master-signed* stamp, the slave can at worst reuse the newest stamp
    it holds -- so either the stamp is fresh (and the audit of that
    version catches the wrong result) or it is old (and clients reject it
    as stale).  This strategy exists to demonstrate that freshness, not
    honesty, is what the stamp buys.
    """

    name = "stale-serve"

    def __init__(self, rng: random.Random | None = None) -> None:
        super().__init__(rng)
        #: Set by the slave on activation.
        self.frozen_store: "ContentStore | None" = None

    def corrupt(self, query: ReadQuery, correct_result: Any,
                version: int, client_id: str) -> Any:
        if self.frozen_store is None:
            return correct_result
        outcome = self.frozen_store.execute_read(query)
        if outcome.result != correct_result:
            self.lies_told += 1
        return outcome.result


class Unresponsive(AdversaryStrategy):
    """Drop a fraction of requests (benign-looking denial of service).

    Never produces incriminating evidence; clients see timeouts and
    eventually re-setup.  Included to show what the accountability
    mechanism *cannot* punish -- the paper's guarantees are about wrong
    answers, not liveness.
    """

    name = "unresponsive"

    def __init__(self, drop_rate: float = 1.0,
                 rng: random.Random | None = None) -> None:
        super().__init__(rng)
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {drop_rate}")
        self.drop_rate = drop_rate

    def should_refuse(self, query: ReadQuery, client_id: str) -> bool:
        return self.rng.random() < self.drop_rate


class BrokenSignature(AdversaryStrategy):
    """Serve correct results but garbage pledge signatures.

    Clients reject such replies outright (``bad_signature``), so this
    adversary can never place a wrong result -- but it also never
    produces verifiable evidence against itself, making it effectively a
    denial-of-service: clients retry elsewhere and eventually re-setup.
    Included to delimit what the accountability mechanism punishes.
    """

    name = "broken-signature"

    def __init__(self, garble_rate: float = 1.0,
                 rng: random.Random | None = None) -> None:
        super().__init__(rng)
        if not 0.0 <= garble_rate <= 1.0:
            raise ValueError(
                f"garble rate must be in [0, 1], got {garble_rate}")
        self.garble_rate = garble_rate

    def garble_signature(self) -> bool:
        """Whether to replace the next pledge's signature with junk."""
        return self.rng.random() < self.garble_rate


class CorruptState(AdversaryStrategy):
    """Tamper with the local replica when applying state updates.

    Instead of lying at read time, this slave corrupts the *write* as it
    applies it (e.g. flipping values), then serves every read "honestly"
    from the corrupted store.  From the defence's point of view this is
    indistinguishable from lying -- the pledge hashes a result that
    trusted re-execution contradicts -- so the same double-check/audit
    machinery convicts it.  Included to show the accountability argument
    does not depend on *where* in the slave the corruption happens.

    ``mangle`` maps an applied write op to the op actually applied.
    """

    name = "corrupt-state"

    def __init__(self, rng: random.Random | None = None) -> None:
        super().__init__(rng)
        self.writes_corrupted = 0

    def mangle_write(self, op: Any) -> Any:
        """Default mangling: corrupt any value field on the op."""
        value = getattr(op, "value", None)
        if value is None:
            return op
        self.writes_corrupted += 1
        self.lies_told += 1  # every subsequent read of this key is a lie
        import dataclasses

        return dataclasses.replace(op, value={"corrupted": True,
                                              "was": repr(value)})


class AnswerSubstitution(AdversaryStrategy):
    """Answer query A with a *valid* (result, pledge) pair for query B.

    The substituted pledge is honestly computed -- correct result, real
    signature, fresh stamp -- just for the wrong query.  What stops it
    is the binding of the pledge to the client's own request: the
    client rebuilds the pledge from the query and request id it sent,
    and the slave's signature does not cover that (``bad_signature``).
    Were the client to accept, the audit would come back *clean*,
    because the pledge itself is truthful -- making this the one
    adversary the audit cannot catch and therefore a mandatory
    client-side check.

    Implemented via :meth:`substitute_query`: the slave executes and
    pledges a decoy query instead of the requested one.
    """

    name = "answer-substitution"

    def __init__(self, decoy_query: Any = None,
                 rng: random.Random | None = None) -> None:
        super().__init__(rng)
        self.decoy_query = decoy_query

    def substitute_query(self, query: ReadQuery) -> Any:
        """Return the decoy to execute/pledge instead of ``query``."""
        self.lies_told += 1
        return self.decoy_query


class Colluding(AdversaryStrategy):
    """Group members lie identically (same seed -> same wrong answers).

    For the quorum-read variant: if every slave in a client's quorum is in
    the same colluding group, their identical lies pass the cross-check
    and only the master double-check or the audit can catch them.
    """

    name = "colluding"

    def __init__(self, group_seed: int, lie_rate: float = 1.0) -> None:
        # All group members construct identical RNG streams.
        super().__init__(random.Random(group_seed))
        self.lie_rate = lie_rate

    def corrupt(self, query: ReadQuery, correct_result: Any,
                version: int, client_id: str) -> Any:
        # Deterministic in the *query*, not in call order, so colluders
        # that serve different request interleavings still agree.
        decision_rng = random.Random(
            query.request_hash() + "/colluding-decision")
        if decision_rng.random() < self.lie_rate:
            return self._wrong_answer(query, correct_result)
        return correct_result
