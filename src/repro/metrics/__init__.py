"""Instrumentation: counters, timelines and summary statistics.

Every experiment in the benchmark harness reads its numbers from one
:class:`MetricsRegistry` attached to the system under test, so simulation
code never prints or aggregates ad hoc.
"""

from repro.metrics.registry import MetricsRegistry, Timeline, summarize

__all__ = ["MetricsRegistry", "Timeline", "summarize"]
