"""The repo benchmark: five socket workloads, calibrated metrics.

``run.py`` is the entry point named by ``BENCHMARK.json`` (one workload
per invocation); ``python -m benchmarks.harness`` runs whole sets and
compares result files.  See ``README.md`` in this directory.
"""
