"""The metrics registry: counters, gauges and histograms with labels.

Design points, chosen for a deterministic simulation:

* **A metric is declared once, in the catalog.** Registry calls name the
  metric and nothing else; its kind, help and label names come from its
  :mod:`repro.obs.catalog` entry, and an undeclared name or another kind's
  method raises. Every update supplies values for exactly the declared
  label names. Unknown or missing labels raise immediately — silent
  mislabelling is how dashboards lie.
* **Cardinality is bounded.** Each metric accepts at most ``max_series``
  distinct label-value combinations; further combinations collapse into a
  single ``__overflow__`` series (and are counted), so a bug that labels by
  message id cannot eat the process.
* **Histograms are reservoirs.** Samples are kept in a fixed-size reservoir
  (Vitter's algorithm R with a deterministic RNG seeded from the metric
  name), so long runs keep memory flat while quantiles stay representative.
  Count/sum/min/max are exact.
* **Series bind once.** ``Counter.series`` and ``Histogram.series`` check
  the labels and apply the cap when a series is bound; updating the
  handle does neither, so a hot site binds at construction.
* **Snapshots are isolated.** :meth:`MetricsRegistry.snapshot` deep-copies
  the current state; later updates never mutate an already-taken snapshot.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.catalog import CATALOG

#: label-value tuple a metric files updates under once it is over budget
OVERFLOW_KEY = ("__overflow__",)

#: default bound on distinct label sets per metric
DEFAULT_MAX_SERIES = 1024

#: default histogram reservoir capacity
DEFAULT_RESERVOIR = 2048


class MetricError(ValueError):
    """A metric was declared or updated inconsistently."""


def _nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted samples; fraction in [0, 1]."""
    if not ordered:
        raise MetricError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise MetricError(f"fraction out of range: {fraction}")
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


class Reservoir:
    """Fixed-size uniform sample of an unbounded stream (algorithm R).

    The RNG is seeded deterministically (from ``seed``), so the same stream
    always yields the same sample — reruns of a benchmark reproduce their
    quantiles bit-for-bit.
    """

    __slots__ = ("capacity", "count", "total", "min", "max", "_samples", "_rng")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR, seed: int = 0):
        if capacity < 1:
            raise MetricError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < self.capacity:
            self._samples[slot] = value

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        return _nearest_rank(sorted(self._samples), fraction)

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": _nearest_rank(ordered, 0.50),
            "p90": _nearest_rank(ordered, 0.90),
            "p95": _nearest_rank(ordered, 0.95),
            "p99": _nearest_rank(ordered, 0.99),
        }

    def __len__(self) -> int:
        return len(self._samples)


class _Metric:
    """State shared by the three metric kinds: naming, labels, cardinality."""

    kind = "metric"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 max_series: int = DEFAULT_MAX_SERIES):
        if not name:
            raise MetricError("metric name must be non-empty")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self.max_series = max_series
        self.overflowed = 0

    def _label_key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        """Validate a label mapping and return its label-value tuple."""
        names = self.label_names
        # as many labels as declared and every declared one present means
        # exactly the declared set: mapping keys are distinct
        if len(labels) == len(names):
            try:
                return tuple([str(labels[name]) for name in names])
            except KeyError:
                pass
        raise MetricError(
            f"{self.name}: expected labels {names}, "
            f"got {tuple(sorted(labels))}")

    def _key(self, labels: Mapping[str, object], store: Dict) -> Tuple[str, ...]:
        """The series key for a label mapping, under the cardinality cap."""
        key = self._label_key(labels)
        if key not in store and len(store) >= self.max_series:
            self.overflowed += 1
            return OVERFLOW_KEY
        return key

    def reset(self) -> None:
        """Drop every series; the declaration stays."""
        self._series.clear()
        self.overflowed = 0

    def _label_map(self, key: Tuple[str, ...]) -> Dict[str, str]:
        if key == OVERFLOW_KEY:
            return {name: "__overflow__" for name in self.label_names} or \
                {"series": "__overflow__"}
        return dict(zip(self.label_names, key))


class _Count:
    """One counter series, as :meth:`Counter.series` hands it out."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters only go up ({amount})")
        self.value += amount


class Counter(_Metric):
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = (),
                 max_series: int = DEFAULT_MAX_SERIES):
        super().__init__(name, help, labels, max_series)
        self._series: Dict[Tuple[str, ...], _Count] = {}
        #: ``tuple(labels.items())`` of a label set asked for again after it
        #: bound its series -> that series, so a third call validates
        #: nothing. Not on the first call: most sets are bound once, by the
        #: component that owns the series, and memoising those costs more
        #: than it saves
        self._bound: Dict[tuple, _Count] = {}

    def series(self, **labels: object) -> _Count:
        """The series for a label set, minted (under the cap) on first use.

        Labels are validated and the cap applied here: a hot site binds its
        series at construction and its ``inc`` does neither. A handle taken
        before :meth:`reset` is detached by it — it keeps counting into a
        series the counter no longer holds — so whoever resets binds again
        (:meth:`repro.net.stats.MessageStats.reset`).
        """
        items = tuple(labels.items())
        try:
            series = self._bound.get(items)
        except TypeError:  # an unhashable label value: never memoised
            series = items = None
        if series is not None:
            return series
        key = self._key(labels, self._series)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Count(self.name)
        elif (items is not None and key != OVERFLOW_KEY
              and key == tuple(labels.values())):
            # in declared order and every value a string: the text key is
            # the values themselves (1, 1.0 and True hash alike but bind
            # "1", "1.0" and "True", so they are looked up the long way)
            self._bound[items] = series
        return series

    def reset(self) -> None:
        super().reset()
        self._bound.clear()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.series(**labels).inc(amount)

    def value(self, **labels: object) -> float:
        series = self._series.get(self._label_key(labels))
        return series.value if series is not None else 0.0

    def total(self) -> float:
        return sum(series.value for series in self._series.values())

    def items(self) -> Dict[Tuple[str, ...], float]:
        return {key: series.value for key, series in self._series.items()}

    def by_label(self) -> Dict[str, float]:
        """Single-label convenience: label value -> count."""
        if len(self.label_names) != 1:
            raise MetricError(f"{self.name} has labels {self.label_names}, "
                              "by_label() needs exactly one")
        return {key[0]: series.value for key, series in self._series.items()}


class Gauge(_Metric):
    """A value that can go up and down (queue depth, live entities...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = (),
                 max_series: int = DEFAULT_MAX_SERIES):
        super().__init__(name, help, labels, max_series)
        self._series: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[self._key(labels, self._series)] = value

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels, self._series)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._series.get(self._label_key(labels), 0.0)

    def items(self) -> Dict[Tuple[str, ...], float]:
        return dict(self._series)


class Histogram(_Metric):
    """Distribution of observations; one bounded reservoir per label set."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = (),
                 max_series: int = DEFAULT_MAX_SERIES,
                 reservoir_size: int = DEFAULT_RESERVOIR):
        super().__init__(name, help, labels, max_series)
        self.reservoir_size = reservoir_size
        self._series: Dict[Tuple[str, ...], Reservoir] = {}

    def observe(self, value: float, **labels: object) -> None:
        self.series(**labels).observe(value)

    def series(self, **labels: object) -> Reservoir:
        """The reservoir for a label set, minted (under the cap) on first use."""
        key = self._key(labels, self._series)
        reservoir = self._series.get(key)
        if reservoir is None:
            # deterministic per-series seed: same run, same quantiles
            seed = zlib.crc32(("/".join((self.name,) + key)).encode())
            reservoir = self._series[key] = Reservoir(self.reservoir_size, seed)
        return reservoir

    def items(self) -> Dict[Tuple[str, ...], Reservoir]:
        return dict(self._series)

    # label-less conveniences -------------------------------------------------

    @property
    def count(self) -> int:
        return sum(r.count for r in self._series.values())

    @property
    def sum(self) -> float:
        return sum(r.total for r in self._series.values())

    @property
    def samples(self) -> List[float]:
        out: List[float] = []
        for reservoir in self._series.values():
            out.extend(reservoir.samples)
        return out

    def mean(self) -> float:
        count = self.count
        return self.sum / count if count else 0.0

    def summary(self, **labels: object) -> Dict[str, float]:
        if labels or not self.label_names:
            return self.series(**labels).summary()
        merged = Reservoir(max(1, self.reservoir_size))
        for value in self.samples:
            merged.observe(value)
        # count/sum/min/max come from the series, which hold them exactly;
        # the merged sample only answers the quantiles
        series = self._series.values()
        merged.count = self.count
        merged.total = self.sum
        merged.min = min((r.min for r in series), default=math.inf)
        merged.max = max((r.max for r in series), default=-math.inf)
        return merged.summary()


class MetricsRegistry:
    """Owns every metric of one deployment; get-or-create by catalog name."""

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES):
        self.max_series = max_series
        self._metrics: Dict[str, _Metric] = {}

    # -- get-or-create from the catalog ---------------------------------------

    def counter(self, name: str) -> Counter:
        return self._metric(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._metric(Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._metric(Histogram, name)

    def _metric(self, cls, name: str):
        """The metric called ``name``, built from its catalog entry on first
        use; an undeclared name or another kind's method raises."""
        metric = self._metrics.get(name)
        if metric is not None and metric.kind == cls.kind:
            return metric
        spec = CATALOG.get(name)
        if spec is None:
            raise MetricError(f"{name} is not declared in repro.obs.catalog")
        if spec.kind != cls.kind:
            raise MetricError(f"{name} is declared as a {spec.kind}, "
                              f"not a {cls.kind}")
        metric = self._metrics[name] = cls(name, spec.help, spec.labels,
                                           self.max_series)
        return metric

    # -- access ---------------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshot / export ----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Deep, isolated copy of the registry state.

        ``{name: {"type", "help", "labels", "series": [{"labels", ...}]}}``;
        counter/gauge series carry ``value``, histogram series a ``summary``
        (exact count/sum/min/max plus reservoir quantiles).
        """
        out: Dict[str, Dict] = {}
        for name, metric in self._metrics.items():
            entry: Dict[str, object] = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.label_names),
                "overflowed": metric.overflowed,
            }
            series = []
            if isinstance(metric, Histogram):
                for key, reservoir in sorted(metric.items().items()):
                    series.append({"labels": metric._label_map(key),
                                   "summary": reservoir.summary()})
            else:
                for key, value in sorted(metric.items().items()):  # type: ignore[attr-defined]
                    series.append({"labels": metric._label_map(key),
                                   "value": value})
            entry["series"] = series
            out[name] = entry
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self, names: Optional[Iterable[str]] = None) -> None:
        """Zero the named metrics (or all of them), keeping declarations."""
        doomed = list(names) if names is not None else list(self._metrics)
        for name in doomed:
            metric = self._metrics.get(name)
            if metric is not None:
                metric.reset()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"
