"""All protocol and deployment parameters in one place.

The paper repeatedly stresses that the system "is configurable, so it can
easily provide 100% correctness and/or 100% false response detection, at
the expense of operational performance" (Section 1).  The two dials that
statement refers to are :attr:`ProtocolConfig.double_check_probability`
(1.0 = every read checked against a master) and
:attr:`ProtocolConfig.audit_fraction` (1.0 = every pledge re-executed).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ProtocolConfig:
    """Parameters of the replication protocol and its simulation costs.

    Timing parameters are in seconds of simulated time.
    """

    # -- consistency window (Section 3.1) --------------------------------
    #: Upper bound on the inconsistency window: once this much time has
    #: passed since a write committed, no client accepts a read that does
    #: not reflect it.  Also the minimum spacing between two writes.
    max_latency: float = 5.0
    #: How often masters push signed keep-alive version stamps to slaves.
    #: Must be comfortably below ``max_latency`` or slaves go stale
    #: between keep-alives and refuse reads.
    keepalive_interval: float = 1.0

    # -- statistical correctness (Sections 3.3-3.4) ------------------------
    #: Probability that a client double-checks a read with its master.
    double_check_probability: float = 0.05
    #: Fraction of forwarded pledges the auditor actually re-executes
    #: (1.0 = the paper's default full audit; lower = "weaken the security
    #: guarantees by verifying only a randomly chosen fraction").
    audit_fraction: float = 1.0
    #: Extra settling time beyond ``max_latency`` the auditor waits before
    #: advancing past a version (absorbs pledge forwarding delay).
    audit_grace: float = 2.0
    #: Whether the auditor caches re-execution results per
    #: (version, request) -- one of its stated throughput advantages.
    auditor_cache_enabled: bool = True

    # -- greedy-client throttling (Section 3.3) ----------------------------
    #: Sustained double-checks/second a master tolerates per client before
    #: suspecting greed.  Honest clients need roughly
    #: ``read_rate * double_check_probability``.
    greedy_allowance_rate: float = 1.0
    #: Burst allowance on top of the sustained rate (token bucket depth).
    greedy_burst: float = 20.0
    #: Fraction of over-quota double-checks the master ignores ("ignoring
    #: a large fraction of the double-check requests").
    greedy_drop_fraction: float = 0.9

    # -- wire-level admission control (repro.qos) ---------------------------
    #: Sustained protocol messages/s a listener admits per client
    #: connection before shedding (None = no wire-level frame limit).
    #: Only socket deployments consult these knobs; the simulator's
    #: fabric has no wire to police.
    qos_frame_rate: float | None = None
    #: Burst allowance on top of the sustained frame rate.
    qos_frame_burst: float = 200.0
    #: Idle-connection reaper: abort a handshaked-but-silent inbound
    #: connection after this many keep-alive intervals (None = never).
    qos_idle_multiple: float | None = None
    #: Key admission buckets by client key fingerprint instead of
    #: connection (a deployment-shared :class:`repro.qos.ledger.
    #: AdmissionLedger`), so reconnect churn cannot mint fresh
    #: allowances.  Unregistered ids share one anonymous account.
    qos_per_principal: bool = False

    # -- namespace sharding (repro.shard) -----------------------------------
    #: Rendezvous salt baked into the signed shard map; fixed for the
    #: namespace lifetime so key placement only moves with the shard set.
    shard_map_seed: int = 0

    # -- client behaviour ---------------------------------------------------
    #: Client-side timeout for read/write/double-check responses.
    request_timeout: float = 10.0
    #: Re-sends one read may spend over its whole life, a stale answer
    #: and a time-out costing one each.  The last of them goes out after
    #: the client has redone the setup phase (waiting for which is on the
    #: same budget); the failure after that fails the read, so every read
    #: resolves within ``(max_read_retries + 2) * request_timeout`` plus
    #: its stale-retry back-offs.
    max_read_retries: int = 5
    #: Per-client override of max_latency (Section 3.2 lets slow clients
    #: "settle with more modest expectations"); None = system value.
    client_max_latency: float | None = None

    # -- Section 4 variants ---------------------------------------------------
    #: Number of distinct slaves each read goes to (1 = base protocol;
    #: >1 = the quorum-read variant).
    read_quorum: int = 1
    #: Per-security-level double-check probability; level "sensitive"
    #: maps to 1.0, which the client implements as "execute on the
    #: trusted master only", exactly as Section 4 prescribes.
    security_levels: dict[str, float] = field(
        default_factory=lambda: {"normal": 0.05, "elevated": 0.25,
                                 "sensitive": 1.0})

    # -- access control (Section 2) -----------------------------------------
    #: Client ids allowed to write; None = all clients.  The paper's access
    #: control policy "is only concerned with operations that modify the
    #: content" (data secrecy is out of scope).
    writers_allowed: frozenset | None = None

    # -- crypto ---------------------------------------------------------------
    #: "rsa" for real signatures, "hmac" for fast large-scale simulation.
    signer_scheme: str = "hmac"
    rsa_bits: int = 512

    # -- simulated service times -------------------------------------------
    #: Seconds of simulated compute per content-store cost unit.
    service_time_per_unit: float = 1e-4
    #: Simulated cost of producing one digital signature (the slave-side
    #: overhead the auditor avoids; calibrated against experiment E10).
    sign_time: float = 5e-3
    #: Simulated cost of one signature verification.
    verify_time: float = 2e-4
    #: Simulated cost of one SHA-1 over a typical result.
    hash_time: float = 5e-5
    #: Charge the simulated compute costs above against the clock.  In
    #: the discrete-event simulator this models paper-calibrated server
    #: hardware; over real sockets the clock is wall time, so charging
    #: a simulated 5 ms signature on top of the *actual* crypto work
    #: caps a slave near 190 reads/s.  Socket deployments measuring
    #: real throughput set this to False (the work-queue discipline is
    #: kept; only the charged duration becomes zero).
    simulate_service_times: bool = True

    # -- housekeeping ----------------------------------------------------------
    #: How many past store versions trusted servers retain for verifying
    #: accusations against historical pledges.
    version_history_depth: int = 64
    #: How many committed write operations masters keep for incremental
    #: slave resyncs; a slave further behind receives a full state
    #: snapshot instead.
    ops_log_depth: int = 1024
    #: Heartbeat/suspicion settings for the master broadcast protocol.
    broadcast_heartbeat_interval: float = 0.25
    broadcast_suspect_after: float = 1.5

    def __post_init__(self) -> None:
        if self.max_latency <= 0:
            raise ValueError(f"max_latency must be positive, "
                             f"got {self.max_latency}")
        if not 0 < self.keepalive_interval <= self.max_latency:
            raise ValueError(
                f"keepalive_interval ({self.keepalive_interval}) must be in "
                f"(0, max_latency={self.max_latency}]"
            )
        if not 0.0 <= self.double_check_probability <= 1.0:
            raise ValueError(
                f"double_check_probability must be in [0, 1], "
                f"got {self.double_check_probability}"
            )
        if not 0.0 <= self.audit_fraction <= 1.0:
            raise ValueError(
                f"audit_fraction must be in [0, 1], got {self.audit_fraction}"
            )
        if self.qos_frame_rate is not None and self.qos_frame_rate <= 0:
            raise ValueError(f"qos_frame_rate must be positive, "
                             f"got {self.qos_frame_rate}")
        if self.qos_frame_burst <= 0:
            raise ValueError(f"qos_frame_burst must be positive, "
                             f"got {self.qos_frame_burst}")
        if self.qos_idle_multiple is not None and self.qos_idle_multiple <= 0:
            raise ValueError(
                f"qos_idle_multiple must be positive, "
                f"got {self.qos_idle_multiple}")
        if self.read_quorum < 1:
            raise ValueError(f"read_quorum must be >= 1, "
                             f"got {self.read_quorum}")
        if self.version_history_depth < 1:
            raise ValueError("version_history_depth must be >= 1")
        if self.ops_log_depth < 1:
            raise ValueError("ops_log_depth must be >= 1")
        for level, probability in self.security_levels.items():
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"security level {level!r} has probability "
                    f"{probability} outside [0, 1]"
                )

    def effective_client_max_latency(self) -> float:
        """The freshness bound this client population enforces."""
        if self.client_max_latency is not None:
            return self.client_max_latency
        return self.max_latency
