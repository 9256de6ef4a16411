"""The wire protocol: every message type exchanged between principals.

The load-bearing structures are :class:`VersionStamp` (the signed,
timestamped ``content_version`` from Section 3.1) and :class:`Pledge`
(Section 3.2's "pledge" packet).  Both carry their signatures alongside a
canonical signed payload, so any party holding the right public key can
verify them -- which is what makes a pledge "an irrefutable proof" of a
slave's dishonesty (Section 3.3) and lets clients reject keep-alives a
malicious slave tries to forge.

All other messages are plain envelopes; in the simulation they are Python
objects handed across the network fabric, with ``size_bytes`` charged at
the sender for byte-count accounting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.content.store import ContentStore
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import canonical_bytes, record_template
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import PublicKey, Signature

# ``*_wire`` fields and read results are genuinely dynamic: they carry
# whatever plain-data shape the active content engine serialises, and an
# adversarial slave may substitute arbitrary values.  They stay ``Any``
# on purpose; everything crypto-shaped below is typed precisely.


# -- version stamps (Section 3.1) --------------------------------------

_STAMP_RECORD = record_template("version", "timestamp", "master_id",
                                kind="version_stamp")

#: What a stamp contributes to the signed payload of every pledge that
#: names it.  The four entries sort next to each other in the pledge
#: record, so a stamp frames them once (:meth:`VersionStamp.pledge_fields`)
#: and each of its pledges splices the run in.
_PLEDGE_STAMP_FIELDS = record_template(
    "stamp_version", "stamp_timestamp", "stamp_master", "stamp_signature",
    partial=True)


@dataclass(frozen=True, slots=True)
class VersionStamp:
    """A master-signed, timestamped ``content_version`` value.

    Travels in slave updates, keep-alives and pledges.  Clients accept a
    read only if the stamp verifies under a certified master key and is
    younger than ``max_latency``.
    """

    version: int
    timestamp: float
    master_id: str
    signature: Signature
    #: Lazily-filled signed-payload memo.  ``init=False`` keeps it out of
    #: ``__init__`` *and* out of ``dataclasses.replace`` copies, so any
    #: forged/altered stamp starts with an empty cache and must rebuild
    #: (and therefore honestly re-serialise) its own payload.
    _payload_cache: bytes | None = field(default=None, init=False,
                                         compare=False, repr=False)
    #: :meth:`pledge_fields` memo, under the same contract.
    _pledge_fields_cache: bytes | None = field(default=None, init=False,
                                               compare=False, repr=False)

    @staticmethod
    def _payload(version: int, timestamp: float, master_id: str) -> bytes:
        return _STAMP_RECORD.encode(version, timestamp, master_id)

    def signed_payload(self) -> bytes:
        """The exact bytes this stamp's signature covers.

        Built once per instance; every subsequent verification of the
        same stamp object reuses it instead of re-canonicalising the
        fields.
        """
        cached = self._payload_cache
        if cached is not None:
            return cached
        payload = self._payload(self.version, self.timestamp,
                                self.master_id)
        object.__setattr__(self, "_payload_cache", payload)
        return payload

    @staticmethod
    def _pledge_fields(version: int, timestamp: float, master_id: str,
                       signature: Signature) -> bytes:
        return _PLEDGE_STAMP_FIELDS.encode(version, timestamp, master_id,
                                           repr(signature))

    def pledge_fields(self) -> bytes:
        """This stamp's entries in the signed payload of a pledge.

        Built once per instance: a slave pledges every read under the
        stamp it holds, and a client or an auditor decodes a stamp once
        per connection (``net.codec.WireContext``), so until the next
        keep-alive each pledge names the same object.
        """
        cached = self._pledge_fields_cache
        if cached is not None:
            return cached
        fields = self._pledge_fields(self.version, self.timestamp,
                                     self.master_id, self.signature)
        object.__setattr__(self, "_pledge_fields_cache", fields)
        return fields

    @classmethod
    def make(cls, keys: KeyPair, version: int,
             timestamp: float) -> "VersionStamp":
        payload = cls._payload(version, timestamp, keys.owner_id)
        stamp = cls(version=version, timestamp=timestamp,
                    master_id=keys.owner_id, signature=keys.sign(payload))
        object.__setattr__(stamp, "_payload_cache", payload)
        return stamp

    def verify(self, verifier_keys: KeyPair,
               master_public_key: PublicKey) -> bool:
        return verifier_keys.verify(master_public_key, self.signed_payload(),
                                    self.signature)

    def age(self, now: float) -> float:
        return now - self.timestamp


# -- pledges (Section 3.2) -----------------------------------------------

_PLEDGE_RECORD = record_template(
    "query", "result_hash", _PLEDGE_STAMP_FIELDS, "slave_id", "request_id",
    kind="pledge", framed=("query",))


@dataclass(frozen=True, slots=True)
class Pledge:
    """The slave's signed commitment: request, result hash, version stamp.

    Contains "a copy of the request, the secure hash (SHA-1) of the
    result, and the latest time-stamped content_version value received
    from the master", signed by the slave (Section 3.2).
    """

    query_wire: Any
    result_hash: str
    stamp: VersionStamp
    slave_id: str
    request_id: str
    signature: Signature
    #: Same contract as :attr:`VersionStamp._payload_cache`: never copied
    #: by ``dataclasses.replace``, so tampered pledges re-serialise.
    _payload_cache: bytes | None = field(default=None, init=False,
                                         compare=False, repr=False)
    #: ``canonical_bytes(query_wire)`` memo, under the same contract:
    #: the signed payload and :meth:`query_hash` share one walk.
    _query_cache: bytes | None = field(default=None, init=False,
                                       compare=False, repr=False)

    @staticmethod
    def _payload(query: bytes, result_hash: str, stamp_fields: bytes,
                 slave_id: str, request_id: str) -> bytes:
        """The payload around an already canonical ``query`` and a
        stamp's :meth:`VersionStamp.pledge_fields`."""
        return _PLEDGE_RECORD.encode(query, result_hash, stamp_fields,
                                     slave_id, request_id)

    def query_bytes(self) -> bytes:
        """``canonical_bytes(self.query_wire)``, walked once per pledge."""
        cached = self._query_cache
        if cached is not None:
            return cached
        query = canonical_bytes(self.query_wire)
        object.__setattr__(self, "_query_cache", query)
        return query

    def query_hash(self) -> str:
        """``sha1_hex(self.query_wire)``: what the auditor files a
        re-execution under."""
        return hashlib.sha1(self.query_bytes()).hexdigest()

    def signed_payload(self) -> bytes:
        """The exact bytes this pledge's signature covers (memoised)."""
        cached = self._payload_cache
        if cached is not None:
            return cached
        payload = self._payload(self.query_bytes(), self.result_hash,
                                self.stamp.pledge_fields(), self.slave_id,
                                self.request_id)
        object.__setattr__(self, "_payload_cache", payload)
        return payload

    @classmethod
    def make(cls, keys: KeyPair, query_wire: Any, result_hash: str,
             stamp: VersionStamp, request_id: str) -> "Pledge":
        return cls.make_many(
            keys, [(query_wire, result_hash, stamp, request_id)])[0]

    @classmethod
    def make_many(
        cls, keys: KeyPair,
        specs: "list[tuple[Any, str, VersionStamp, str]]",
    ) -> "list[Pledge]":
        """Construct pledges for several reads with one batch signing.

        ``specs`` holds ``(query_wire, result_hash, stamp, request_id)``
        per read.  Batching only amortises the signer's per-call setup
        (HMAC key schedule), it never changes what is signed.
        """
        slave_id = keys.owner_id
        queries = [canonical_bytes(query_wire)
                   for query_wire, _hash, _stamp, _request_id in specs]
        payloads = [cls._payload(query, result_hash, stamp.pledge_fields(),
                                 slave_id, request_id)
                    for query, (_wire, result_hash, stamp, request_id)
                    in zip(queries, specs)]
        signatures = keys.sign_many(payloads)
        pledges = []
        for (query_wire, result_hash, stamp, request_id), query, payload, \
                sig in zip(specs, queries, payloads, signatures):
            pledge = cls(query_wire=query_wire, result_hash=result_hash,
                         stamp=stamp, slave_id=slave_id,
                         request_id=request_id, signature=sig)
            object.__setattr__(pledge, "_payload_cache", payload)
            object.__setattr__(pledge, "_query_cache", query)
            pledges.append(pledge)
        return pledges

    def verify(self, verifier_keys: KeyPair,
               slave_public_key: PublicKey) -> bool:
        return verifier_keys.verify(slave_public_key, self.signed_payload(),
                                    self.signature)


@dataclass(frozen=True, slots=True)
class Seal:
    """What a slave vouches for a read with: the stamp it pledged under
    and its signature over the pledge.

    The rest of the pledge -- the query, the request id, the result's
    hash and the slave's name -- is what the client already holds, so a
    read reply carries only this and the client rebuilds the pledge from
    its own request (``repro.core.client.rebuild_pledge``).  A full
    :class:`Pledge` has the same two attributes and serves as well.
    """

    stamp: VersionStamp
    signature: Signature


# -- setup phase (Section 2) ---------------------------------------------


@dataclass(frozen=True, slots=True)
class DirectoryLookup:
    """Client -> directory: list master certificates for a content key."""

    content_key_fingerprint: str


@dataclass(frozen=True, slots=True)
class DirectoryListing:
    """Directory -> client: all master certificates for the content."""

    certificates: tuple[Certificate, ...]


@dataclass(frozen=True, slots=True)
class ClientHello:
    """Client -> chosen master: request a slave assignment."""

    client_id: str


@dataclass(frozen=True, slots=True)
class SlaveAssignment:
    """Master -> client: slave certificate(s) plus the auditor's address.

    ``slave_certificates`` carries ``read_quorum`` entries (one in the
    base protocol).  The auditor id tells the client where to forward
    pledges.
    """

    slave_certificates: tuple[Certificate, ...]
    auditor_id: str


# -- write path (Section 3.1) -----------------------------------------------


@dataclass(frozen=True, slots=True)
class WriteRequest:
    """Client -> master: apply a write operation."""

    client_id: str
    request_id: str
    op_wire: Any


@dataclass(frozen=True, slots=True)
class WriteReply:
    """Master -> client: commit confirmation (or rejection)."""

    request_id: str
    committed: bool
    version: int
    reason: str = ""


@dataclass(frozen=True, slots=True)
class SlaveUpdate:
    """Master -> slave: committed write(s) plus the new signed stamp.

    Sent only after the masters have committed the write ("lazy" update,
    Section 3).  ``ops_wire`` is a batch to allow catch-up after slave
    recovery; in the steady state it holds one write.
    """

    from_version: int
    ops_wire: tuple[Any, ...]
    stamp: VersionStamp


@dataclass(frozen=True, slots=True)
class SlaveSnapshot:
    """Master -> slave: a full state transfer.

    Sent when a slave is so far behind that the incremental op log no
    longer reaches its version (crash longer than ``ops_log_depth``
    writes).  ``store`` is a frozen snapshot at ``stamp.version``; the
    receiver installs its own ``clone()`` of it.
    """

    store: ContentStore
    stamp: "VersionStamp"


@dataclass(frozen=True, slots=True)
class KeepAlive:
    """Master -> slave: periodic re-signed stamp for the current version."""

    stamp: VersionStamp


@dataclass(frozen=True, slots=True)
class ResyncRequest:
    """Slave -> master: I detected a version gap; resend from ``have``."""

    have_version: int


# -- read path (Sections 3.2-3.3) -----------------------------------------


@dataclass(frozen=True, slots=True)
class ReadRequest:
    """Client -> slave: execute a read query."""

    client_id: str
    request_id: str
    query_wire: Any


@dataclass(frozen=True, slots=True)
class ReadReply:
    """Slave -> client: the result plus the seal of the signed pledge.

    The client reads ``pledge.stamp`` and ``pledge.signature`` and
    nothing else, so a whole :class:`Pledge` in place of the slave's
    :class:`Seal` is only a longer encoding of the same reply.
    ``in_sync=False`` signals the honest-slave refusal from Section 3:
    a slave whose keep-alive is older than ``max_latency`` "should stop
    handling user requests until they are back in sync".
    """

    request_id: str
    result: Any
    pledge: Seal | Pledge | None
    in_sync: bool = True


@dataclass(frozen=True, slots=True)
class DoubleCheckRequest:
    """Client -> master: re-execute this query on trusted state."""

    client_id: str
    request_id: str
    query_wire: Any
    pledge: Pledge | None = None
    #: True for Section 4 "sensitive" reads executed only on the master:
    #: the client needs the result itself, not just the hash.
    want_result: bool = False


@dataclass(frozen=True, slots=True)
class DoubleCheckReply:
    """Master -> client: trusted result hash (and result, for sensitive
    reads executed only on the master) at the master's current version."""

    request_id: str
    result_hash: str
    version: int
    result: Any = None
    include_result: bool = False


# -- audit path (Section 3.4) -------------------------------------------------


@dataclass(frozen=True, slots=True)
class AuditSubmission:
    """Client -> auditor: pledge for background verification."""

    pledge: Pledge


@dataclass(frozen=True, slots=True)
class AuditBatch:
    """Client -> auditor: every pledge the client accepted in one tick.

    The audit path has no deadline (the auditor deliberately runs
    ``max_latency + audit_grace`` behind), so a client forwards one
    message per scheduler tick, not one per read; a client with a single
    read in flight sends a batch of one.
    """

    pledges: tuple[Pledge, ...]


# -- corrective action (Section 3.5) -------------------------------------------


@dataclass(frozen=True, slots=True)
class Accusation:
    """Client/auditor -> master: signed evidence of slave misbehaviour."""

    pledge: Pledge
    accuser_id: str
    discovery: str  # "immediate" (double-check) | "audit" (delayed)


@dataclass(frozen=True, slots=True)
class ExclusionNotice:
    """Master -> client: your slave was excluded; here is a new one."""

    excluded_slave_id: str
    replacement: SlaveAssignment


@dataclass(frozen=True, slots=True)
class SetupFailed:
    """Master -> client: cannot serve (no slaves / shutting down)."""

    reason: str


# -- master <-> master broadcast payloads (plain dicts would do, but typed
#    payloads keep delivery handlers explicit) ------------------------------


@dataclass(frozen=True, slots=True)
class BcastWrite:
    """Totally-ordered write submission."""

    origin_master: str
    client_id: str
    request_id: str
    op_wire: Any


@dataclass(frozen=True, slots=True)
class BcastElectAuditor:
    """First delivered election message fixes the auditor set.

    Section 3.4: "If the auditor is over-used, the solution is to either
    add extra auditors, or weaken the security guarantees" -- the set may
    therefore contain several auditors; each client is assigned exactly
    one, so every pledge is audited exactly once.
    """

    auditor_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class BcastSlaveList:
    """Periodic slave-list announcement (enables crash takeover)."""

    master_id: str
    slave_ids: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class BcastExcludeSlave:
    """Totally-ordered exclusion of a proven-malicious slave."""

    slave_id: str
    owning_master: str
    evidence_request_id: str
    discovery: str


@dataclass(frozen=True, slots=True)
class BroadcastWrapper:
    """Envelope distinguishing broadcast-engine traffic on the wire."""

    envelope: Any


# -- wire-codec registry hook ---------------------------------------------
#
# Every message type that may cross a real socket, in wire-id order.  The
# position of a class in this tuple IS its wire type id (offset by the
# codec's base id), so the order is append-only: new types go at the end,
# and removing or reordering entries is a wire-format break requiring a
# codec version bump.  ``repro.net.codec`` builds its registry from this
# tuple plus the crypto/broadcast carriers (certificates, broadcast
# envelopes, public keys) that travel inside these messages.

WIRE_MESSAGE_TYPES: tuple[type, ...] = (
    VersionStamp,
    Pledge,
    DirectoryLookup,
    DirectoryListing,
    ClientHello,
    SlaveAssignment,
    WriteRequest,
    WriteReply,
    SlaveUpdate,
    SlaveSnapshot,
    KeepAlive,
    ResyncRequest,
    ReadRequest,
    ReadReply,
    DoubleCheckRequest,
    DoubleCheckReply,
    AuditSubmission,
    Accusation,
    ExclusionNotice,
    SetupFailed,
    BcastWrite,
    BcastElectAuditor,
    BcastSlaveList,
    BcastExcludeSlave,
    BroadcastWrapper,
    AuditBatch,
    Seal,
)
