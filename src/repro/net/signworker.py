"""One signing worker per socket deployment: RSA signatures on another core.

A slave's per-read RSA-FDH signature is the one private-key operation
that dominates a read, and a master's stamp (every keep-alive, every
commit) stalls everything else for as long (docs/PERFORMANCE.md, "RSA
signing off the loop"); over sockets every node shares one event loop.
When the process may run on more than one CPU, :class:`~repro.net.
server.RealtimeScheduler` hands each RSA batch of
:meth:`~repro.sim.network.Node.sign_batch` to a :class:`SigningWorker`:
a child interpreter running this module, started at the deployment's
first RSA batch and stopped by the deployment's ``aclose``.

The child is a ``subprocess`` (fork and exec, so it holds no socket of
the parent's and shares no interpreter state) that talks over its
stdin and stdout only.  Every message is a frame: a 4-byte big-endian
length, then items, each a 4-byte length and its bytes; an integer
item is its big-endian bytes.

* parent -> child, once per key: ``K``, the key's id, then the
  :class:`~repro.crypto.rsa.RSAKeyPair` numbers in field order;
* parent -> child, per batch: ``S``, the key's id, then the payloads;
* child -> parent, per batch and in the order asked: the signatures.

The child signs with :func:`~repro.crypto.rsa.rsa_sign`, so a signature
is the same integer the node would have made inline, and exits at EOF
on its stdin.  Batches are answered first in, first out, so a master's
stamps leave in the order it made them.  If the child dies, the parent
signs what it still owed inline, in order, and so does every later
batch.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import signal
import struct
import subprocess
import sys
from collections import deque
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable

import repro
from repro.crypto.rsa import RSAKeyPair, rsa_sign

if TYPE_CHECKING:  # pragma: no cover - typing only; the child needs no loop
    import asyncio

    from repro.metrics import MetricsRegistry

_LEN = struct.Struct(">I")
_KEY, _SIGN = b"K", b"S"
_KEY_FIELDS = tuple(field.name for field in dataclasses.fields(RSAKeyPair))
#: Seconds :meth:`SigningWorker.close` waits for the child to exit at
#: EOF before killing it.
EXIT_GRACE = 1.0

Then = Callable[[list[Any]], None]
#: A batch handed over: the key, the payloads, their continuation and
#: the loop time it was handed over.
Batch = tuple[RSAKeyPair, list[bytes], Then, float]


def _int_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def encode_frame(items: Iterable[bytes]) -> bytes:
    body = b"".join(_LEN.pack(len(item)) + item for item in items)
    return _LEN.pack(len(body)) + body


def decode_items(body: bytes) -> list[bytes]:
    items = []
    pos = 0
    while pos < len(body):
        (size,) = _LEN.unpack_from(body, pos)
        pos += _LEN.size
        items.append(body[pos:pos + size])
        pos += size
    return items


# -- the child ----------------------------------------------------------------

def serve(stdin: IO[bytes], stdout: IO[bytes]) -> None:
    """Answer sign frames in the order they arrive, until EOF."""
    keys: dict[bytes, RSAKeyPair] = {}
    while True:
        header = stdin.read(_LEN.size)
        if len(header) < _LEN.size:
            return
        (size,) = _LEN.unpack(header)
        body = stdin.read(size)
        if len(body) < size:
            return
        kind, key_id, *rest = decode_items(body)
        if kind == _KEY:
            keys[key_id] = RSAKeyPair(
                *(int.from_bytes(item, "big") for item in rest))
        else:
            keypair = keys[key_id]
            stdout.write(encode_frame(
                [_int_bytes(rsa_sign(keypair, payload)) for payload in rest]))
            stdout.flush()


def main() -> int:
    # Ctrl-C is the parent's to handle; the child ends at EOF.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        serve(sys.stdin.buffer, sys.stdout.buffer)
    except BrokenPipeError:
        # The parent closed our stdout first: nothing is owed anyone.
        os._exit(0)
    return 0


# -- the parent ---------------------------------------------------------------

def _child_env() -> dict[str, str]:
    """The parent's environment, with the directory that holds the
    ``repro`` package in front of ``PYTHONPATH``: a parent that put it
    on ``sys.path`` itself has it nowhere else."""
    source = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (source, env.get("PYTHONPATH")) if path)
    return env


def _pin(pid: int, cpus: set[int]) -> None:
    """Best effort: placement is a speed-up, never a condition."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


class SigningWorker:
    """The parent's end of one signing child.

    :meth:`submit` queues a batch and writes its frame without
    blocking; the loop's reader on the child's stdout calls each
    batch's ``then`` with its signatures, first in, first out.  A
    ``then`` that raises is reported as a raising loop callback is, and
    the batches behind it still run.

    ``metrics`` counts the batches (``signworker_batches``) and
    signatures (``signworker_signatures``) handed over, the summed wait
    from submit to answer by the loop's clock (``signworker_wait_s``)
    and the most batches unanswered at once
    (``signworker_unanswered_peak``).
    """

    def __init__(self, loop: "asyncio.AbstractEventLoop", cpus: set[int],
                 metrics: "MetricsRegistry") -> None:
        self._loop = loop
        self._metrics = metrics
        # -S: the child needs the stdlib and ``repro`` only, and skips
        # the site packages' start-up work.
        self._process = subprocess.Popen(
            [sys.executable, "-S", "-m", __name__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=_child_env())
        # The child takes the highest of ``cpus`` and the calling (the
        # loop's) thread the rest, until the child is gone.  A pipe
        # wakes its reader on the writer's CPU, so unpinned, the loop
        # woken by an answer lands on the child's CPU and the two share
        # it while the other idles (mixed_rw's read_cost_x: 1.6-1.7
        # unpinned, 0.91-0.99 pinned; docs/PERFORMANCE.md).
        self._cpus = cpus
        signing_cpu = max(cpus)
        _pin(self._process.pid, {signing_cpu})
        _pin(0, cpus - {signing_cpu})
        assert self._process.stdin is not None
        assert self._process.stdout is not None
        self._to = self._process.stdin.fileno()
        self._from = self._process.stdout.fileno()
        os.set_blocking(self._to, False)
        os.set_blocking(self._from, False)
        self._key_ids: dict[RSAKeyPair, bytes] = {}
        #: Batches sent and not yet answered, oldest first.
        self._waiting: deque[Batch] = deque()
        self._outbox = bytearray()
        self._inbox = bytearray()
        #: False once the child is gone or stopped: nothing more is sent.
        self.alive = True
        loop.add_reader(self._from, self._on_readable)

    @property
    def pid(self) -> int:
        return self._process.pid

    @property
    def returncode(self) -> int | None:
        return self._process.poll()

    def submit(self, keypair: RSAKeyPair, payloads: list[bytes],
               then: Then) -> None:
        """Sign ``payloads`` with ``keypair`` in the child; ``then``
        gets the signatures from a later loop callback."""
        frames = []
        key_id = self._key_ids.get(keypair)
        if key_id is None:
            key_id = self._key_ids[keypair] = _LEN.pack(len(self._key_ids))
            frames.append(encode_frame(
                [_KEY, key_id, *(_int_bytes(getattr(keypair, name))
                                 for name in _KEY_FIELDS)]))
        frames.append(encode_frame([_SIGN, key_id, *payloads]))
        waiting = self._waiting
        waiting.append((keypair, payloads, then, self._loop.time()))
        metrics = self._metrics
        metrics.incr("signworker_batches")
        metrics.incr("signworker_signatures", len(payloads))
        metrics.peak("signworker_unanswered_peak", len(waiting))
        self._write(b"".join(frames))

    # -- pipes ----------------------------------------------------------------

    def _write(self, data: bytes) -> None:
        if not self._outbox:
            try:
                sent = os.write(self._to, data)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._fail()
                return
            if sent == len(data):
                return
            data = data[sent:]
            self._loop.add_writer(self._to, self._on_writable)
        self._outbox += data

    def _on_writable(self) -> None:
        try:
            sent = os.write(self._to, self._outbox)
        except BlockingIOError:
            return
        except OSError:
            self._fail()
            return
        del self._outbox[:sent]
        if not self._outbox:
            self._loop.remove_writer(self._to)

    def _on_readable(self) -> None:
        try:
            chunk = os.read(self._from, 1 << 16)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._fail()
            return
        inbox = self._inbox
        inbox += chunk
        answered = []
        while len(inbox) >= _LEN.size:
            end = _LEN.size + _LEN.unpack_from(inbox)[0]
            if len(inbox) < end:
                break
            signatures = [int.from_bytes(item, "big") for item in
                          decode_items(bytes(inbox[_LEN.size:end]))]
            del inbox[:end]
            answered.append((self._waiting.popleft(), signatures))
        for batch, signatures in answered:
            self._answer(batch, signatures)

    def _answer(self, batch: Batch, signatures: list[Any]) -> None:
        _keypair, _payloads, then, submitted = batch
        self._metrics.incr("signworker_wait_s",
                           self._loop.time() - submitted)
        try:
            then(signatures)
        except Exception as exc:
            self._loop.call_exception_handler({
                "message": f"Exception in callback {then!r}",
                "exception": exc})

    # -- the end --------------------------------------------------------------

    def _fail(self) -> None:
        """The child is gone: sign what it owed here, in order."""
        if not self.alive:
            return
        self._detach()
        self._process.kill()
        self._process.wait()
        waiting, self._waiting = self._waiting, deque()
        for batch in waiting:
            keypair, payloads, _then, _submitted = batch
            self._answer(batch, [rsa_sign(keypair, payload)
                                 for payload in payloads])

    def _detach(self) -> None:
        self.alive = False
        _pin(0, self._cpus)
        self._loop.remove_reader(self._from)
        self._loop.remove_writer(self._to)
        self._outbox.clear()
        for pipe in (self._process.stdin, self._process.stdout):
            assert pipe is not None
            try:
                pipe.close()
            except OSError:
                pass

    def close(self) -> None:
        """Stop the child: EOF on its stdin, then reap it (killed after
        :data:`EXIT_GRACE`).  Unanswered batches are dropped."""
        if not self.alive:
            return
        self._waiting.clear()
        self._detach()
        try:
            self._process.wait(EXIT_GRACE)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()


if __name__ == "__main__":
    sys.exit(main())
