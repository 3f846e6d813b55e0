"""Lock-safe metrics registry with Prometheus text and JSON exposition.

A :class:`MetricsRegistry` hands out three instrument kinds -- monotonic
:class:`Counter`, last-write-wins :class:`Gauge`, fixed-bucket
:class:`Histogram` -- each supporting label sets (``metric.inc(1,
server="R", lane="primary")``).  All state mutates under one registry
re-entrant lock, so several threads can bump the same counter safely.

Exposition formats:

* :meth:`MetricsRegistry.render_prometheus` -- the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, ``name{k="v"} value`` samples,
  cumulative ``_bucket``/``_sum``/``_count`` series for histograms).
* :meth:`MetricsRegistry.snapshot` -- a JSON-serialisable dict, the input
  shape for ``python -m repro.obs.dump``.

Like tracing, metrics are strictly read-only observers: nothing in the
join/service stack reads a metric back to make a decision, so attaching a
registry cannot perturb results.  The registry is off by default
(``metrics=None`` everywhere) and the instrumented call sites guard on
``is not None``.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ChannelMetricsObserver",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Seconds buckets spanning sub-millisecond coalesced exchanges up to
#: multi-second chaos waves.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _fmt(value: float) -> str:
    if isinstance(value, bool):  # guard against accidental bools
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.RLock) -> None:
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: "OrderedDict" = OrderedDict()

    def _reset(self) -> None:
        self._series.clear()


class Counter(_Metric):
    """A monotonically increasing counter with label sets."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only increase; got %r" % (amount,))
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)


class Gauge(_Metric):
    """A last-write-wins gauge with label sets."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    def add(self, amount: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)


class Histogram(_Metric):
    """A fixed-bucket histogram (Prometheus ``le`` semantics, inclusive)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.RLock,
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help_text, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram %r needs at least one bucket bound" % name)
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram %r has duplicate bucket bounds" % name)
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
                self._series[key] = state
            # First bucket whose bound is >= value; the trailing slot is +Inf.
            index = bisect.bisect_left(self.buckets, value)
            state["counts"][index] += 1
            state["sum"] += value
            state["count"] += 1

    def count(self, **labels) -> int:
        with self._lock:
            state = self._series.get(_label_key(labels))
            return 0 if state is None else state["count"]

    def sum(self, **labels) -> float:
        with self._lock:
            state = self._series.get(_label_key(labels))
            return 0.0 if state is None else state["sum"]


class MetricsRegistry:
    """A named collection of metrics sharing one re-entrant lock.

    Registration is idempotent: asking for an existing name returns the
    existing instrument (the kind must match, else ``ValueError``), so
    independent components can share a metric without coordination.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(name, Counter, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(name, Gauge, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(name, Histogram, help_text, buckets=buckets)

    def _register(self, name: str, cls, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, self._lock, **kwargs)
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    "metric %r already registered as %s" % (name, metric.kind)
                )
            return metric

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Zero every series while keeping the registered instruments."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()

    def render_prometheus(self) -> str:
        """All metrics in the Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            for metric in self._metrics.values():
                if metric.help:
                    lines.append("# HELP %s %s" % (metric.name, metric.help))
                lines.append("# TYPE %s %s" % (metric.name, metric.kind))
                if isinstance(metric, Histogram):
                    for key, state in metric._series.items():
                        cumulative = 0
                        for bound, count in zip(metric.buckets, state["counts"]):
                            cumulative += count
                            lines.append(
                                "%s_bucket%s %s"
                                % (
                                    metric.name,
                                    _render_labels(key, 'le="%s"' % _fmt(bound)),
                                    cumulative,
                                )
                            )
                        cumulative += state["counts"][-1]
                        lines.append(
                            "%s_bucket%s %s"
                            % (metric.name, _render_labels(key, 'le="+Inf"'), cumulative)
                        )
                        lines.append(
                            "%s_sum%s %s"
                            % (metric.name, _render_labels(key), _fmt(state["sum"]))
                        )
                        lines.append(
                            "%s_count%s %s"
                            % (metric.name, _render_labels(key), state["count"])
                        )
                else:
                    for key, value in metric._series.items():
                        lines.append(
                            "%s%s %s" % (metric.name, _render_labels(key), _fmt(value))
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serialisable dump of every metric and series."""
        out: Dict[str, object] = {}
        with self._lock:
            for metric in self._metrics.values():
                series = []
                if isinstance(metric, Histogram):
                    for key, state in metric._series.items():
                        cumulative = 0
                        buckets: Dict[str, int] = {}
                        for bound, count in zip(metric.buckets, state["counts"]):
                            cumulative += count
                            buckets[_fmt(bound)] = cumulative
                        buckets["+Inf"] = cumulative + state["counts"][-1]
                        series.append(
                            {
                                "labels": dict(key),
                                "buckets": buckets,
                                "sum": state["sum"],
                                "count": state["count"],
                            }
                        )
                else:
                    for key, value in metric._series.items():
                        series.append({"labels": dict(key), "value": value})
                out[metric.name] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "series": series,
                }
        return out


class ChannelMetricsObserver:
    """Adapter wiring :class:`repro.network.channel.Channel` traffic into a
    registry: wire bytes, packets and messages per (server, lane, direction).

    Channels call :meth:`on_traffic` once per accounted batch -- after their
    own ledgers have been updated -- so the observer can never perturb the
    metered byte counts it reports on.

    This is the hottest metrics path (one call per metered message batch),
    so it bypasses the generic ``Counter.inc`` label handling: canonical
    label keys are cached per (server, lane, direction) triple and all
    three counters are bumped under one lock acquisition
    (``BENCHMARK.json``'s ``obs.enabled_overhead`` is what cares).
    """

    __slots__ = ("_bytes", "_packets", "_messages", "_lock", "_keys")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._bytes = registry.counter(
            "repro_channel_bytes_total",
            "Wire bytes accounted per channel, lane and direction",
        )
        self._packets = registry.counter(
            "repro_channel_packets_total",
            "Packets accounted per channel, lane and direction",
        )
        self._messages = registry.counter(
            "repro_channel_messages_total",
            "Messages accounted per channel, lane and direction",
        )
        self._lock = self._bytes._lock
        self._keys: Dict[Tuple[str, str, str], Tuple] = {}

    def on_traffic(
        self,
        server: str,
        lane: str,
        direction: str,
        wire: int,
        packets: int,
        messages: int,
    ) -> None:
        triple = (server, lane, direction)
        key = self._keys.get(triple)
        if key is None:
            # Pre-sorted canonical key: "direction" < "lane" < "server".
            key = self._keys[triple] = (
                ("direction", str(direction)),
                ("lane", str(lane)),
                ("server", str(server)),
            )
        with self._lock:
            series = self._bytes._series
            series[key] = series.get(key, 0) + wire
            series = self._packets._series
            series[key] = series.get(key, 0) + packets
            series = self._messages._series
            series[key] = series.get(key, 0) + messages
