"""Crash-failure injection for benign (non-Byzantine) faults.

The paper's trust split is precise: masters and the auditor are trusted but
may *crash benignly* (Section 3: the broadcast protocol "can tolerate
benign (non-malicious) server failures"; Section 3.1 describes dividing a
crashed master's slave set).  Byzantine behaviour is reserved for slaves
and is modelled separately in :mod:`repro.core.adversary`.

:class:`FailureInjector` schedules crash/recovery points against any set of
nodes, either from an explicit script or from an exponential failure /
repair process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.sim.network import Node
from repro.sim.simulator import Simulator


@dataclass
class FailureEvent:
    """One scheduled crash or recovery, for post-run inspection."""

    at: float
    node_id: str
    kind: str  # "crash" | "recover"


@dataclass(frozen=True, slots=True)
class ScheduledFault:
    """One scripted node fault, the shared vocabulary between the
    simulator CLI (``--crash``) and :class:`FailureInjector` scripts.

    ``at`` is seconds after the schedule is applied; ``duration=None``
    means the node stays down for the rest of the run.
    """

    node_id: str
    at: float
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time cannot be negative: {self.at}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(
                f"fault duration must be positive: {self.duration}")


def parse_crash_spec(spec: str) -> ScheduledFault:
    """Parse ``node@t[,duration]`` (e.g. ``master-01@20,10``)."""
    node_id, sep, timing = spec.partition("@")
    if not sep or not node_id:
        raise ValueError(
            f"crash spec {spec!r} must look like node@t[,duration]")
    at_text, _sep, duration_text = timing.partition(",")
    try:
        at = float(at_text)
        duration = float(duration_text) if duration_text else None
    except ValueError:
        raise ValueError(
            f"crash spec {spec!r} has non-numeric timing") from None
    return ScheduledFault(node_id=node_id, at=at, duration=duration)


@dataclass
class FailureInjector:
    """Schedules benign crash/recovery events on simulation nodes."""

    simulator: Simulator
    log: list[FailureEvent] = field(default_factory=list)

    def crash_at(self, node: Node, when: float) -> None:
        """Crash ``node`` at absolute simulated time ``when``."""
        self.simulator.schedule_at(when, self._crash, node)

    def recover_at(self, node: Node, when: float) -> None:
        """Recover ``node`` at absolute simulated time ``when``."""
        self.simulator.schedule_at(when, self._recover, node)

    def crash_for(self, node: Node, when: float, duration: float) -> None:
        """Crash ``node`` at ``when`` and recover it ``duration`` later."""
        self.crash_at(node, when)
        self.recover_at(node, when + duration)

    def apply_script(self, script: Iterable[ScheduledFault],
                     nodes: Mapping[str, Node]) -> int:
        """Schedule every :class:`ScheduledFault` against ``nodes``.

        Fault times are relative to the simulator's current clock.
        Returns the number of faults scheduled; unknown node ids raise
        (a silently ignored typo would void the experiment).
        """
        base = self.simulator.now
        count = 0
        for fault in script:
            node = nodes.get(fault.node_id)
            if node is None:
                raise KeyError(
                    f"crash schedule names unknown node {fault.node_id!r}; "
                    f"known: {sorted(nodes)}")
            if fault.duration is None:
                self.crash_at(node, base + fault.at)
            else:
                self.crash_for(node, base + fault.at, fault.duration)
            count += 1
        return count

    def exponential_churn(self, node: Node, mtbf: float, mttr: float,
                          until: float, seed_label: str = "") -> None:
        """Drive ``node`` through an exponential crash/repair process.

        ``mtbf`` is the mean time between failures while up, ``mttr`` the
        mean time to repair while down; the process stops at ``until``.
        """
        if mtbf <= 0 or mttr <= 0:
            raise ValueError("mtbf and mttr must be positive")
        rng = self.simulator.fork_rng(f"churn:{node.node_id}:{seed_label}")
        t = self.simulator.now
        up = True
        while True:
            t += rng.expovariate(1.0 / (mtbf if up else mttr))
            if t >= until:
                break
            if up:
                self.crash_at(node, t)
            else:
                self.recover_at(node, t)
            up = not up

    def _crash(self, node: Node) -> None:
        if not node.crashed:
            self.log.append(FailureEvent(self.simulator.now, node.node_id,
                                         "crash"))
            node.crash()

    def _recover(self, node: Node) -> None:
        if node.crashed:
            self.log.append(FailureEvent(self.simulator.now, node.node_id,
                                         "recover"))
            node.recover()
