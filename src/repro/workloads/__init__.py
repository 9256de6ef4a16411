"""Workload generators for the experiment harness.

The paper constrains its applicability to workloads where "the number of
reads is at least an order of magnitude larger than the number of writes"
(Section 2) and observes that "read requests show daily peak patterns"
(Section 3.4).  These generators produce those shapes:

* :class:`~repro.workloads.generators.ZipfKeys` -- skewed key popularity,
  feeding the auditor-cache ablation (A3);
* :class:`~repro.workloads.arrivals.DiurnalArrivals` -- a sinusoidal
  day/night arrival process for the audit-lag experiment (E5);
* :func:`~repro.workloads.generators.catalog_dataset`,
  :func:`~repro.workloads.generators.filesystem_dataset`,
  :func:`~repro.workloads.generators.publications_dataset` -- seed data for
  the three content engines, matching the paper's motivating examples.
"""

from repro.workloads.arrivals import DiurnalArrivals
from repro.workloads.generators import (
    ZipfKeys,
    catalog_dataset,
    filesystem_dataset,
    publications_dataset,
)

__all__ = [
    "DiurnalArrivals",
    "ZipfKeys",
    "catalog_dataset",
    "filesystem_dataset",
    "publications_dataset",
]
