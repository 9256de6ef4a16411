"""Deterministic discrete-event WAN simulator.

The paper's protocols live in an asynchronous wide-area network: messages
take variable time, may be lost, and servers may crash benignly.  This
package provides that substrate:

* :mod:`repro.sim.simulator` -- the event loop: virtual clock, ordered
  event queue, cancellable timers, deterministic tie-breaking.
* :mod:`repro.sim.latency` -- pluggable link-latency models (constant,
  uniform, lognormal WAN, per-pair matrix).
* :mod:`repro.sim.network` -- the message fabric connecting
  :class:`~repro.sim.network.Node` objects, with loss and partitions.
* :mod:`repro.sim.failures` -- crash/recovery injection schedules.

Everything is driven by seeded ``random.Random`` instances; two runs with
the same seed produce identical traces, which the test suite relies on.
"""

from repro.sim.simulator import Simulator, EventHandle
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    LatencyMatrix,
    LogNormalLatency,
    UniformLatency,
)
from repro.sim.network import Network, Node
from repro.sim.failures import FailureInjector

__all__ = [
    "Simulator",
    "EventHandle",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "LatencyMatrix",
    "Network",
    "Node",
    "FailureInjector",
]
