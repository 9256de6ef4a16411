"""protolint -- AST-based protocol-invariant linter for this repository.

The paper's security argument ("Secure Data Replication over Untrusted
Hosts", HotOS 2003) rests on invariants the type system cannot see:

* the simulator must be bit-reproducible from a seed, so protocol code
  must never read the wall clock or an unseeded RNG (PL001);
* digests and signatures cross trust boundaries, so they must be
  compared in constant time, never with ``==`` (PL002);
* signed payload memos must never survive a ``dataclasses.replace`` on
  a tampered message, so message/crypto dataclasses follow a strict
  shape (PL003);
* all signature verification must flow through the scheme-dispatching
  ``verify_signature`` entry point, never through a signer's own
  ``verify_with`` or a raw primitive, and nothing outside
  ``repro.crypto`` may touch the HMAC key table (PL004);
* a node's timers die with a crash, so periodic work is declared with
  ``Node.every`` and never by a method re-arming itself (PL007);
* plus two general hygiene rules: no mutable default arguments (PL005)
  and no references to nonexistent ``ProtocolConfig`` fields (PL006).

v2 adds three project-wide, flow-aware families on top of a multi-file
project model (:mod:`tools.protolint.project`):

* **PL1xx async-atomicity** -- read-modify-write on shared ``self.*``
  state straddling an ``await`` without a held lock (PL101), blocking
  calls inside coroutines (PL102), un-retained ``asyncio.create_task``
  results (PL103), and ``.acquire()`` outside ``async with`` (PL104);
* **PL2xx wire-registry drift** -- the codec's append-only id registry
  and every wire dataclass's init-field order are checked against the
  committed golden lockfile ``tools/protolint/wire_registry.lock``
  (PL201), and frozen dataclasses in the messages module must be listed
  in ``WIRE_MESSAGE_TYPES`` (PL202);
* **PL3xx trust-boundary taint** -- payloads arriving from untrusted
  peers must pass scheme-dispatch ``verify``/``verify_many`` or
  ``constant_time_equals`` before reaching acceptance sinks (PL301).

``protolint`` machine-checks those invariants on every commit.  It is
pure stdlib (``ast`` + ``tokenize``) so it runs anywhere the tests run.

Usage::

    python -m tools.protolint src/ tools/ benchmarks/ examples/
    python -m tools.protolint --format sarif src/ > protolint.sarif
    python -m tools.protolint --update-lock src/
    python -m tools.protolint --list-rules
    python -m tools.protolint --explain PL002

Suppressions (see docs/STATIC_ANALYSIS.md):

* ``# protolint: disable=PL001`` trailing a line suppresses that line;
* ``# protolint: disable-next-line=PL001`` suppresses the next line;
* ``# protolint: disable-file=PL001`` anywhere suppresses the file.
"""

from __future__ import annotations

from tools.protolint.engine import (
    FileContext,
    LintResult,
    ProjectContext,
    lint_paths,
    lint_source,
    lint_sources,
)
from tools.protolint.project import ProjectModel
from tools.protolint.registry import (
    REGISTRY,
    ProjectRule,
    Rule,
    Violation,
    register,
)

__all__ = [
    "FileContext",
    "LintResult",
    "ProjectContext",
    "ProjectModel",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "Violation",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "register",
]

__version__ = "2.0.0"
