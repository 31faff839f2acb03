"""Statistics primitives: counters, scalar samplers, and histograms.

Every hardware model collects its statistics through a
:class:`StatRecorder` so that experiment code can pull a uniform
name → value report out of a finished simulation.

This layer is *aggregate* observability — totals and distributions
over a whole run.  Its siblings: the kernel trace hook
(``Simulator(trace=fn)``) streams the executed event order, which
``experiments --profile`` counts per callback owner, and the per-packet
span tracer (:mod:`repro.telemetry`,
attached as ``sim.tracer``) records where each packet's time went as
a Chrome-trace timeline.  ``docs/observability.md`` maps when to
reach for which.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List


class Histogram:
    """A streaming sample accumulator with exact percentile support.

    Keeps every sample (the experiments here run at most a few hundred
    thousand samples, so exactness is cheap and avoids binning decisions).

    A sample is one list append, so hot callers may bind
    ``_samples.append`` and call it directly.  :meth:`percentile` sorts
    the list in place on every call (a linear timsort pass when it is
    already ordered) instead of tracking a sorted flag that such a
    caller would bypass.
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str = "histogram"):
        self.name = name
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        """Add many samples."""
        for value in values:
            self.record(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return math.fsum(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return self.total / len(self._samples)

    @property
    def minimum(self) -> float:
        """Smallest sample (raises on empty)."""
        return min(self._samples)

    @property
    def maximum(self) -> float:
        """Largest sample (raises on empty)."""
        return max(self._samples)

    @property
    def stdev(self) -> float:
        """Population standard deviation (0.0 with fewer than 2 samples)."""
        n = len(self._samples)
        if n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(math.fsum((x - mean) ** 2 for x in self._samples) / n)

    def percentile(self, p: float) -> float:
        """Exact percentile ``p`` in [0, 100] by linear interpolation."""
        if not self._samples:
            raise ValueError("percentile of empty histogram")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        self._samples.sort()
        if len(self._samples) == 1:
            return self._samples[0]
        rank = (p / 100) * (len(self._samples) - 1)
        low = int(rank)
        high = min(low + 1, len(self._samples) - 1)
        fraction = rank - low
        a, b = self._samples[low], self._samples[high]
        # a + (b-a)*f, clamped: the two-product form underflows for
        # subnormal samples (0.5*5e-324 == 0.0), landing outside [a, b].
        return min(max(a + (b - a) * fraction, a), b)

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.percentile(50)

    def summary(self) -> Dict[str, float]:
        """Dictionary of the common summary statistics.

        The schema is total: an empty histogram returns the same keys
        (zero-filled) as a populated one, so report/artifact consumers
        can index ``mean``/``p99``/... unconditionally.
        """
        if not self._samples:
            return {"count": 0, "mean": 0.0, "min": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum,
        }


class StatRecorder:
    """A named bag of counters, scalars, and histograms.

    Components attach one recorder each; experiments flatten recorders
    into report rows.
    """

    # Slotted: every model-layer counter bump and latency sample goes
    # through one of these, so the attribute loads are hot.
    __slots__ = ("owner", "counters", "scalars", "histograms")

    def __init__(self, owner: str = ""):
        self.owner = owner
        self.counters: Dict[str, int] = {}
        self.scalars: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def count_many(self, counts: Dict[str, int]) -> None:
        """Merge a name → amount mapping into the counters.

        Bulk form of :meth:`count`; used e.g. to fold the kernel
        profiler's events-per-owner buckets into a recorder.
        """
        counters = self.counters
        for name, amount in counts.items():
            counters[name] = counters.get(name, 0) + amount

    def set_scalar(self, name: str, value: float) -> None:
        """Record/overwrite scalar ``name``."""
        self.scalars[name] = value

    def sample(self, name: str, value: float) -> None:
        """Add a sample to histogram ``name`` (created on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Histogram(name=f"{self.owner}.{name}" if self.owner else name)
            self.histograms[name] = histogram
        # Inlined Histogram.record — one attribute hop less on the
        # hottest sampling path.
        histogram._samples.append(value)

    def get_counter(self, name: str) -> int:
        """Counter value (0 if never incremented)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created empty if absent)."""
        if name not in self.histograms:
            self.histograms[name] = Histogram(
                name=f"{self.owner}.{name}" if self.owner else name
            )
        return self.histograms[name]

    def report(self) -> Dict[str, float]:
        """Flatten everything into one name → number mapping."""
        flat: Dict[str, float] = {}
        for name, value in self.counters.items():
            flat[name] = value
        for name, value in self.scalars.items():
            flat[name] = value
        for name, histogram in self.histograms.items():
            for stat, value in histogram.summary().items():
                flat[f"{name}.{stat}"] = value
        return flat
