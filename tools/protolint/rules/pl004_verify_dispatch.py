"""PL004: all signature verification goes through the scheme dispatch.

Invariant (documented in ``repro.crypto.signatures.verify_signature``):
verification must dispatch on the *public key's* scheme, not on the
verifier's own signer.  A ``Signer.verify_with`` method, deleted at
wire version 4, did the latter and silently failed cross-scheme -- an
HMAC-keyed client handed an RSA-signed certificate verified nothing,
which once meant ``signer_scheme="rsa"`` systems accepted zero reads.
Calling the scheme primitives (``rsa_verify``, ``_hmac_verify``)
directly bypasses both the dispatch and the process-wide verify cache
and its metrics.  And the HMAC key table (``_HMAC_KEYS``) holds every
HMAC signer's key: code that can reach it can sign as anyone, which is
what an HMAC public key being only a handle rules out.

Flags, everywhere outside ``src/repro/crypto/`` (the one package
allowed to touch primitives):

* any ``<obj>.verify_with(...)`` call, so the deleted path stays gone;
* any call whose target resolves to ``rsa_verify`` / ``_hmac_verify``
  (however imported);
* any reference to ``_HMAC_KEYS``: a name, an attribute, an import or
  the string (``getattr``).

Fix: call ``KeyPair.verify(public_key, payload, signature)`` (counts
the operation against the verifying node and hits the verify cache) or
``repro.crypto.signatures.verify_signature`` where no node identity is
involved.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.protolint.engine import FileContext, ProjectContext
from tools.protolint.names import import_aliases, resolve_call_target, terminal_name
from tools.protolint.registry import Rule, Violation, register

_RAW_PRIMITIVES = {"rsa_verify", "_hmac_verify"}
_KEY_TABLE = "_HMAC_KEYS"


def _names_key_table(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == _KEY_TABLE
    if isinstance(node, ast.Attribute):
        return node.attr == _KEY_TABLE
    if isinstance(node, ast.alias):
        return node.name == _KEY_TABLE
    return isinstance(node, ast.Constant) and node.value == _KEY_TABLE


@register
class VerifyThroughDispatch(Rule):
    code = "PL004"
    name = "verify-through-scheme-dispatch"
    scope = ("src/", "benchmarks/", "examples/")

    def applies_to(self, path: str,
                   project: ProjectContext | None = None) -> bool:
        if "src/repro/crypto/" in "/" + path.lstrip("/"):
            return False
        return super().applies_to(path, project)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if _names_key_table(node):
                yield self.violation(
                    ctx, node,
                    f"`{_KEY_TABLE}` holds every HMAC signer's key and is "
                    "private to repro.crypto; verify with KeyPair.verify "
                    "or crypto.signatures.verify_signature")
                continue
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name == "verify_with":
                yield self.violation(
                    ctx, node,
                    "raw Signer.verify_with() bypasses the scheme dispatch "
                    "(cross-scheme verification silently fails); use "
                    "KeyPair.verify or crypto.signatures.verify_signature")
                continue
            if name in _RAW_PRIMITIVES:
                target = resolve_call_target(node.func, aliases)
                yield self.violation(
                    ctx, node,
                    f"raw scheme primitive `{target or name}()` outside "
                    "repro.crypto; use KeyPair.verify or "
                    "crypto.signatures.verify_signature (cached + metered)")
