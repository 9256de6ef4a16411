"""Peer addressing: node id -> (host, port) resolution.

In the simulator a node id *is* an address.  Over sockets the two are
distinct: certificates bind a node id to a ``"host:port"`` string (the
paper's Section 2 certificate carries "the address of that server"), and
the connection pool resolves ids through a :class:`PeerDirectory` the
deployment harness fills in as listeners come up.
"""

from __future__ import annotations

from repro.net.errors import PeerUnknown


def format_address(host: str, port: int) -> str:
    """The ``host:port`` string embedded in certificates."""
    return f"{host}:{port}"


class PeerDirectory:
    """Mutable node-id -> endpoint map shared by every connection pool."""

    def __init__(self) -> None:
        self._endpoints: dict[str, tuple[str, int]] = {}

    def add(self, node_id: str, host: str, port: int) -> None:
        self._endpoints[node_id] = (host, port)

    def remove(self, node_id: str) -> None:
        self._endpoints.pop(node_id, None)

    def knows(self, node_id: str) -> bool:
        return node_id in self._endpoints

    def endpoint(self, node_id: str) -> tuple[str, int]:
        try:
            return self._endpoints[node_id]
        except KeyError:
            raise PeerUnknown(f"no known address for {node_id!r}") from None

    def address(self, node_id: str) -> str:
        host, port = self.endpoint(node_id)
        return format_address(host, port)

    def node_ids(self) -> list[str]:
        return sorted(self._endpoints)

    def __len__(self) -> int:
        return len(self._endpoints)
