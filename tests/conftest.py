"""Shared fixtures for the test suite.

``small_system`` builds the default integration deployment: 2 masters,
2 slaves each, 4 clients, constant 10 ms links, HMAC signatures (fast),
seeded for reproducibility.  Tests needing other topologies build their
own spec via ``make_system``.

``loop_errors_fail`` (autouse for socket-marked tests) turns exceptions
asyncio would only log -- raised inside ``call_soon`` callbacks and
protocol methods, which is where the transport runs -- into failures.
``fast_retries`` shrinks the connection pool's reconnect backoff for
tests that stop the listener their pool dials.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import re
from typing import Any, Iterator

import pytest

from repro.content.kvstore import KeyValueStore
from repro.core.config import ProtocolConfig
from repro.core.system import DeploymentSpec, ReplicationSystem
from repro.net import transport


def default_store() -> KeyValueStore:
    return KeyValueStore({f"k{i:03d}": i for i in range(100)})


def make_system(**overrides) -> ReplicationSystem:
    """Build (but do not start) a deployment with sensible test defaults."""
    protocol = overrides.pop("protocol", None) or ProtocolConfig(
        double_check_probability=0.1)
    spec_kwargs = {
        "num_masters": 2,
        "slaves_per_master": 2,
        "num_clients": 4,
        "seed": 42,
        "protocol": protocol,
        "store_factory": default_store,
    }
    spec_kwargs.update(overrides)
    return ReplicationSystem.build(DeploymentSpec(**spec_kwargs))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def small_system() -> ReplicationSystem:
    system = make_system()
    system.start()
    return system


@pytest.fixture
def fast_retries(monkeypatch: pytest.MonkeyPatch) -> pytest.MonkeyPatch:
    """Reconnect backoff from 0.01 s capped at 0.05 s, three attempts a
    batch; returns the monkeypatch for further overrides."""
    monkeypatch.setattr(transport, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(transport, "BACKOFF_MAX", 0.05)
    monkeypatch.setattr(transport, "MAX_ATTEMPTS", 3)
    return monkeypatch


#: Markers whose tests run the callback-driven socket transport.
_SOCKET_MARKERS = ("net", "obs", "shard", "chaos")
#: What asyncio reports when a callback or a protocol method raised: it
#: logs the traceback and carries on, so nothing else fails.
_SWALLOWED = re.compile(
    r"Exception in callback|protocol\.\w+\(\) (?:call )?failed")


@contextlib.contextmanager
def recorded_loop_errors() -> Iterator[list[dict[str, Any]]]:
    """Collect the exception-handler contexts of swallowed errors.

    Patches the class, not one loop: the socket tests each build their
    own loop with ``asyncio.run``.  The context is still passed on, so
    the traceback is logged as before.
    """
    swallowed: list[dict[str, Any]] = []
    original = asyncio.BaseEventLoop.call_exception_handler

    def recording(loop: asyncio.BaseEventLoop,
                  context: dict[str, Any]) -> None:
        # A task cancelled by loop teardown surfaces through the stream
        # server's done-callback the same way; that is not a bug.
        if _SWALLOWED.search(context.get("message", "")) \
                and not isinstance(context.get("exception"),
                                   asyncio.CancelledError):
            swallowed.append(context)
        original(loop, context)

    asyncio.BaseEventLoop.call_exception_handler = recording  # type: ignore[method-assign]
    try:
        yield swallowed
    finally:
        asyncio.BaseEventLoop.call_exception_handler = original  # type: ignore[method-assign]


@pytest.fixture(autouse=True)
def loop_errors_fail(request: pytest.FixtureRequest) -> Iterator[None]:
    """Fail a socket-marked test if the loop swallowed an exception."""
    if not any(request.node.get_closest_marker(marker)
               for marker in _SOCKET_MARKERS):
        yield
        return
    with recorded_loop_errors() as swallowed:
        yield
    assert not swallowed, "the event loop swallowed: " + "; ".join(
        f"{context['message']}: {context.get('exception')!r}"
        for context in swallowed)
