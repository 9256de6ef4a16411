"""Reliable totally-ordered broadcast among the trusted master set.

Section 3 of the paper: "Our algorithm requires the masters to be fully
connected to each other through secure communication links, and implement
a reliable, total-ordering, broadcast protocol that can tolerate benign
(non-malicious) server failures.  The broadcast protocol itself is outside
the scope of this paper; a good choice could be for example the protocol
described in [8]."

[8] is Kaashoek et al.'s sequencer-based protocol, which this package
implements:

* one member acts as *sequencer* and assigns a global sequence number to
  every broadcast request;
* members deliver strictly in sequence order, buffering out-of-order
  arrivals and requesting retransmission of gaps;
* requests unacknowledged by an ordering are retransmitted;
* if the sequencer crashes, surviving members detect the silence via
  missed heartbeats; the lowest-ranked member of a majority that answers
  claims the next epoch, merges the majority's histories slot by slot
  and only then resumes numbering (one view change, docs/PROTOCOL.md
  §2.8a).

The engine (:class:`~repro.broadcast.totalorder.TotalOrderBroadcast`) is
transport-agnostic: the master server embeds one and routes envelope
messages into it.
"""

from repro.broadcast.totalorder import (
    BroadcastEnvelope,
    TotalOrderBroadcast,
)

__all__ = ["TotalOrderBroadcast", "BroadcastEnvelope"]
