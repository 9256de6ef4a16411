"""The paper's contribution: secure replication over untrusted slaves.

Module map (one per protocol role or mechanism):

* :mod:`repro.core.config` -- every protocol parameter in one dataclass.
* :mod:`repro.core.messages` -- the wire protocol: pledges, version
  stamps, keep-alives, double-checks, accusations, reassignment.
* :mod:`repro.core.owner` -- the content owner: content key, certificates.
* :mod:`repro.core.directory` -- the public directory of master certs.
* :mod:`repro.core.trusted` -- shared machinery of trusted servers
  (broadcast membership, version history, commit spacing).
* :mod:`repro.core.view` -- the trusted view: slave owners, client
  auditors and exclusions as one value replaced at delivery.
* :mod:`repro.core.master` -- master servers: writes, keep-alives, slave
  management, double-checks, greedy-client throttling, corrective action.
* :mod:`repro.core.slave` -- slave servers: read execution, pledge
  signing, lazy state updates, freshness discipline.
* :mod:`repro.core.auditor` -- the auditor: lagging re-execution
  of every pledged read, query caching, delayed discovery.
* :mod:`repro.core.client` -- clients: setup phase, read/write protocol,
  probabilistic double-checks, pledge forwarding, retry logic.
* :mod:`repro.core.adversary` -- Byzantine slave behaviour strategies.
* :mod:`repro.core.variants` -- Section 4 variants: security levels and
  multi-slave quorum reads.
* :mod:`repro.core.system` -- deployment builder wiring everything onto
  the simulator.
"""

from repro.core.config import ProtocolConfig
from repro.core.system import ReplicationSystem

__all__ = ["ProtocolConfig", "ReplicationSystem"]
