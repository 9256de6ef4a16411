"""The trusted set's replicated decisions, as one value.

Who owns each slave (Section 3.1: "the remaining ones will divide its
slave set"), which auditor each client's pledges go to (Section 3.4:
"add extra auditors") and which slaves are excluded (Section 3.5) are
all read off one :class:`TrustedView`: the build-time enrollment plus
the membership and exclusion notices the broadcast delivered.  Each
delivered notice returns a new view, so members that delivered the
same slots hold equal views -- one equality, which
:func:`repro.core.oracle.ownership_violations` starts from.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.crypto.hashing import sha1_hex


@functools.lru_cache(maxsize=65536)
def _client_digest(client_id: str) -> int:
    """Stable 32-bit digest of a client id (auditor-partition hashing).

    Memoised because a master reads it on every assignment and, for
    each of its clients, at every delivered membership change; client
    ids are few, so the cache stays tiny.
    """
    return int(sha1_hex(client_id)[:8], 16)


@dataclass(frozen=True)
class TrustedView:
    """Enrollment and delivered notices; every decision a pure read."""

    #: (home master, its slaves in enrollment order), homes in the order
    #: they first enrolled a slave.  A slave's home issued its cert.
    homes: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: The auditor set, in build order.
    auditors: tuple[str, ...] = ()
    #: The trusted members the delivered notices hold up, in rank order.
    alive: tuple[str, ...] = ()
    #: Slaves an exclusion was delivered for.
    excluded: frozenset[str] = frozenset()

    # -- build time and delivery: each returns a new view -----------------

    def enroll(self, slaves: Iterable[tuple[str, str]],
               auditors: Iterable[str] = ()) -> TrustedView:
        """Add ``(home, slave)`` pairs, in order, and auditors."""
        homes = {home: list(held) for home, held in self.homes}
        for home, slave in slaves:
            homes.setdefault(home, []).append(slave)
        return replace(self, auditors=(*self.auditors, *auditors),
                       homes=tuple((home, tuple(held))
                                   for home, held in homes.items()))

    def down(self, member: str) -> TrustedView:
        return replace(self, alive=tuple(m for m in self.alive if m != member))

    def up(self, member: str) -> TrustedView:
        return replace(self, alive=tuple(sorted({*self.alive, member})))

    def exclude(self, slave: str) -> TrustedView:
        return replace(self, excluded=self.excluded | {slave})

    # -- reads -------------------------------------------------------------

    @functools.cached_property
    def owners(self) -> Mapping[str, str]:
        """slave -> master, excluded slaves included (read-only: every
        caller shares it).

        A slave stays at its home while the home is up; otherwise it
        goes to ``live[i % len(live)]``, ``live`` being the homes up in
        rank order and ``i`` its index among its home's slaves.  A home
        that comes back up takes its slaves back; with no home up, each
        slave names its own.
        """
        homes = dict(self.homes)
        live = [m for m in self.alive if m in homes]
        return MappingProxyType({
            slave: home if home in self.alive or not live
            else live[i % len(live)]
            for home, slaves in self.homes
            for i, slave in enumerate(slaves)})

    def slaves_of(self, master_id: str) -> list[str]:
        """The non-excluded slaves ``master_id`` owns, in enrollment
        order (a master samples from it, so the order is part of the
        run)."""
        return [slave for slave, owner in self.owners.items()
                if owner == master_id and slave not in self.excluded]

    def auditor_for(self, client_id: str) -> str:
        """The client's auditor ("" with none enrolled).

        The pledge stream partitions by client hash, so each pledge is
        audited once and a client's pledges meet the same auditor.
        While the client's hash auditor is down it goes to
        ``alive[digest % len(alive)]`` over the auditors up, and back
        once the hash auditor is up again; with none up, to the hash
        auditor.
        """
        if not self.auditors:
            return ""
        digest = _client_digest(client_id)
        home = self.auditors[digest % len(self.auditors)]
        alive = [a for a in self.auditors if a in self.alive]
        return home if home in self.alive or not alive \
            else alive[digest % len(alive)]
