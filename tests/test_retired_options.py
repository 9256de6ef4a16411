"""Options nothing but tests set are module constants, each with the
default of the option it replaced (docs/perf-log/PR46.md's census).  A
test that needs another value monkeypatches the constant where it is
read."""

from __future__ import annotations

import pytest

from repro.broadcast import totalorder
from repro.core import master
from repro.net import server, transport
from repro.qos import breaker, tokens

CENSUS = [
    (transport, "BACKOFF_BASE", 0.05),
    (transport, "BACKOFF_MULTIPLIER", 2.0),
    (transport, "BACKOFF_MAX", 2.0),
    (transport, "BACKOFF_JITTER", 0.5),
    (transport, "MAX_ATTEMPTS", 5),
    (breaker, "FAILURE_THRESHOLD", 2),
    (breaker, "RESET_TIMEOUT", 1.0),
    (breaker, "HALF_OPEN_MAX", 1),
    (server, "HANDSHAKE_TIMEOUT", 5.0),
    (tokens, "SHED_PENALTY", 0.05),
    (totalorder, "REQUEST_TIMEOUT", 1.0),
    (master, "OPS_LOG_DEPTH", 1024),
]


@pytest.mark.parametrize("module, name, default", CENSUS,
                         ids=[name for _module, name, _default in CENSUS])
def test_a_retired_option_keeps_its_default(module, name, default):
    assert getattr(module, name) == default
