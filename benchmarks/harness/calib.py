"""The reference exchange: what one unit of ``_x`` is.

A ping-pong of a 200-byte payload over a plain asyncio loopback stream
where each side does a fixed amount of stdlib work.  It imports nothing
from ``repro``, so no change to the program can make it faster; what
moves it is the machine (frequency, a noisy neighbour, the interpreter
build).  Every time-valued metric is divided by the reading that
brackets its load slice and reported in multiples of one exchange.

The work is repeated ``WORK_REPEATS`` times per side so that, like the
program, an exchange is mostly computation with a small share of socket
calls.  With one repeat (half the time in the kernel) the exchange
slowed by 50-80 % in eras where the cluster slowed by 25 %, and the
normalised read cost of 30 back-to-back runs ranged over 27 % of its
median; with sixteen repeats the range was 10 %.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import socket
import statistics
import struct
import time

EXCHANGES = 60
WORK_REPEATS = 16
_FIELDS = struct.Struct(">25d")
PAYLOAD = _FIELDS.pack(*(float(i) for i in range(25)))
_KEY = b"reference-exchange"


def _work(data: bytes) -> None:
    """The fixed per-side work: unpack, build a dict, hash, MAC."""
    for _ in range(WORK_REPEATS):
        fields = _FIELDS.unpack(data)
        table = {f"field{i:02d}": fields[i] for i in range(12)}
        digest = hashlib.sha1(repr(table).encode()).digest()
        hmac.new(_KEY, digest, hashlib.sha1).digest()


class Reference:
    """One echo server plus one client connection, kept for a run."""

    def __init__(self) -> None:
        self._server: asyncio.Server | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._echo_done = asyncio.Event()
        self.readings: list[float] = []

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._echo, "127.0.0.1", 0)
        host, port = self._server.sockets[0].getsockname()[:2]
        self._reader, self._writer = await asyncio.open_connection(
            host, port)
        sock = self._writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        await self.reading()  # first exchange pays the accept
        self.readings.clear()

    async def _echo(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                data = await reader.readexactly(len(PAYLOAD))
                _work(data)
                writer.write(data)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.transport.abort()
            self._echo_done.set()

    async def reading(self) -> float:
        """Seconds per exchange: the median of ``EXCHANGES`` ping-pongs.

        The median, not the mean: the cluster's timers (keep-alives,
        the auditor's drain) share this event loop and land inside some
        exchanges; they are the program's work, not the machine's speed.
        """
        reader, writer = self._reader, self._writer
        assert reader is not None and writer is not None
        size = len(PAYLOAD)
        samples = []
        clock = time.perf_counter
        for _ in range(EXCHANGES):
            t0 = clock()
            _work(PAYLOAD)
            writer.write(PAYLOAD)
            await reader.readexactly(size)
            samples.append(clock() - t0)
        value = statistics.median(samples)
        self.readings.append(value)
        return value

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.transport.abort()
            # Let the echo side see the reset and finish by itself; a
            # handler cancelled at loop shutdown logs a traceback.
            await asyncio.wait_for(self._echo_done.wait(), 2.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
