"""Request arrival processes.

The generator yields absolute arrival times and is driven by a supplied
``random.Random``, keeping whole-system runs reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Iterator


class DiurnalArrivals:
    """Sinusoidal day/night arrival pattern (Section 3.4's "daily peaks").

    Instantaneous rate::

        rate(t) = base_rate * (1 + amplitude * sin(2*pi*(t - phase)/period))

    with ``0 <= amplitude <= 1`` so the rate never goes negative.  Sampling
    uses Lewis-Shedler thinning against the peak rate, which is exact for
    any bounded rate function.
    """

    def __init__(self, base_rate: float, amplitude: float = 0.8,
                 period: float = 86_400.0, phase: float = 0.0) -> None:
        if base_rate <= 0:
            raise ValueError(f"base rate must be positive, got {base_rate}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1], got {amplitude}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.base_rate = base_rate
        self.amplitude = amplitude
        self.period = period
        self.phase = phase

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        angle = 2.0 * math.pi * (t - self.phase) / self.period
        return self.base_rate * (1.0 + self.amplitude * math.sin(angle))

    def times(self, start: float, end: float,
              rng: random.Random) -> Iterator[float]:
        """Yield arrival times in [start, end) via thinning."""
        peak = self.base_rate * (1.0 + self.amplitude)
        t = start
        while True:
            t += rng.expovariate(peak)
            if t >= end:
                return
            if rng.random() * peak <= self.rate_at(t):
                yield t
