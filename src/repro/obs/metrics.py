"""Metrics: a process-global registry of counters, gauges and histograms.

Where spans answer *where did this request's time go*, metrics answer
*what has this process done so far*: totals across requests
(``inds_validated_total``, ``pool_tasks_total{kind=...}``), current
states (``pool_workers``), and latency distributions
(``validate_seconds``).  The registry is a plain in-memory store with a
snapshot API — no exposition server, no background thread; ``repro-ind
serve`` surfaces the snapshot through its ``stats`` request kind.

Naming follows the Prometheus conventions the names would be scraped
under if a network service ever exported them: counters
end in ``_total``, histograms in their unit, and labels are encoded into
the key as ``name{k=v}`` with sorted keys, so one flat dict holds every
series.

Worker processes never touch the parent's registry — per-task facts ride
back in task outcomes, and the parent-side dispatcher increments on
their behalf.  :meth:`MetricsRegistry.merge` exists for the remaining
case (folding a snapshot from another process wholesale).

Standard library only; ``repro.obs`` sits below every other layer.
"""

from __future__ import annotations

import threading

__all__ = ["BUCKET_BOUNDS", "MetricsRegistry", "get_registry"]

#: Histogram bucket upper bounds, in seconds.  One fixed scale for every
#: histogram keeps snapshots mergeable across processes; the range spans
#: sub-millisecond cache hits to minute-long validations.
BUCKET_BOUNDS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)


def _key(name: str, labels: dict) -> str:
    """Encode a series key: ``name`` or ``name{k=v,...}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe store of counters, gauges and fixed-bucket histograms.

    All mutators take ``**labels`` and fold them into the series key, so
    ``reg.inc("pool_tasks_total", kind="spool-export")`` and
    ``reg.inc("pool_tasks_total", kind="brute-force")`` are independent
    series.  Every operation is a dict update under one lock — cheap
    enough to leave on unconditionally.
    """

    def __init__(self) -> None:
        """Create an empty registry."""
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, dict] = {}

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` (default 1) to counter ``name{labels}``."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge ``name{labels}`` to ``value`` (last write wins)."""
        key = _key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into histogram ``name{labels}``."""
        key = _key(name, labels)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = {
                    "count": 0,
                    "sum": 0.0,
                    "min": float("inf"),
                    "max": float("-inf"),
                    "buckets": [0] * (len(BUCKET_BOUNDS) + 1),
                }
                self._hists[key] = hist
            hist["count"] += 1
            hist["sum"] += value
            hist["min"] = min(hist["min"], value)
            hist["max"] = max(hist["max"], value)
            for i, bound in enumerate(BUCKET_BOUNDS):
                if value <= bound:
                    hist["buckets"][i] += 1
                    break
            else:
                hist["buckets"][-1] += 1

    def snapshot(self) -> dict:
        """A JSON-safe copy of every series at this instant.

        Histogram buckets come out cumulative under ``le`` keys (the
        Prometheus shape): ``{"0.1": 12, ..., "+Inf": 15}`` means 12
        observations at or under 100 ms out of 15 total.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            hists = {
                key: {
                    "count": h["count"],
                    "sum": h["sum"],
                    "min": h["min"],
                    "max": h["max"],
                    "buckets": list(h["buckets"]),
                }
                for key, h in self._hists.items()
            }
        histograms = {}
        for key, h in hists.items():
            cumulative = {}
            running = 0
            for bound, n in zip(BUCKET_BOUNDS, h["buckets"]):
                running += n
                cumulative[f"{bound}"] = running
            running += h["buckets"][-1]
            cumulative["+Inf"] = running
            histograms[key] = {
                "count": h["count"],
                "sum": h["sum"],
                "min": h["min"],
                "max": h["max"],
                "buckets": cumulative,
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram totals add; gauges overwrite (the merged
        snapshot is assumed newer).  Cumulative bucket counts are
        de-accumulated back into per-bucket increments before adding.
        """
        for key, value in snapshot.get("counters", {}).items():
            with self._lock:
                self._counters[key] = self._counters.get(key, 0.0) + value
        for key, value in snapshot.get("gauges", {}).items():
            with self._lock:
                self._gauges[key] = float(value)
        for key, hist in snapshot.get("histograms", {}).items():
            bounds = [f"{b}" for b in BUCKET_BOUNDS] + ["+Inf"]
            cumulative = hist.get("buckets", {})
            previous = 0
            increments = []
            for bound in bounds:
                running = cumulative.get(bound, previous)
                increments.append(running - previous)
                previous = running
            with self._lock:
                mine = self._hists.get(key)
                if mine is None:
                    mine = {
                        "count": 0,
                        "sum": 0.0,
                        "min": float("inf"),
                        "max": float("-inf"),
                        "buckets": [0] * (len(BUCKET_BOUNDS) + 1),
                    }
                    self._hists[key] = mine
                mine["count"] += hist.get("count", 0)
                mine["sum"] += hist.get("sum", 0.0)
                mine["min"] = min(mine["min"], hist.get("min", float("inf")))
                mine["max"] = max(mine["max"], hist.get("max", float("-inf")))
                for i, n in enumerate(increments):
                    mine["buckets"][i] += n

    def reset(self) -> None:
        """Drop every series (test isolation; never called in production)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every instrumentation point writes to."""
    return _REGISTRY
