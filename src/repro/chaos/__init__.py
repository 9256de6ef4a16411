"""Deterministic chaos engineering for the socket stack.

Everything the simulator can do to a deployment -- drop, delay,
duplicate, reorder and corrupt messages, partition links, crash and
restart nodes -- replayed against the *real* transport
(:mod:`repro.net`), with every decision drawn from seeded per-link
streams so a failing schedule replays exactly.

Layers:

* :mod:`repro.chaos.faults` -- the per-link fault plane and the
  fault-injecting connection pool; launch either topology with a plane
  (``LocalCluster.launch(spec, plane=FaultPlane(seed))``) and every
  link answers to it;
* :mod:`repro.chaos.invariants` -- the safety oracle's verdicts (zero
  accepted stale/forged reads, consistency window, convergence);
* :mod:`repro.chaos.scenarios` -- scenarios as values: a cast (a
  deployment spec), a schedule of steps from a closed vocabulary
  (write, settle, start/stop read load, crash, restart, link faults --
  a partition is a cut link -- mark, wait-until, check)
  with node references as values, and checks -- the named catalog of
  nine, and the one interpreter that runs any such value into a JSON
  verdict (also behind ``repro-sim chaos``).
"""

from repro.chaos.faults import (
    CUT,
    HEALTHY,
    ChaosConnectionPool,
    FaultPlane,
    FramePlan,
    LinkFaults,
)
from repro.chaos.invariants import CheckResult, run_safety_checks
from repro.chaos.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioVerdict,
    play_scenario,
    run_scenario,
    run_scenario_sync,
)

__all__ = [
    "CUT",
    "HEALTHY",
    "ChaosConnectionPool",
    "CheckResult",
    "FaultPlane",
    "FramePlan",
    "LinkFaults",
    "SCENARIOS",
    "Scenario",
    "ScenarioVerdict",
    "play_scenario",
    "run_safety_checks",
    "run_scenario",
    "run_scenario_sync",
]
