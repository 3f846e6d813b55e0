"""The discrete-event replay of a traffic log ``repro.network`` shipped until PR 19.

Oracle of :meth:`repro.network.wifi.WifiLinkModel.estimate_channel_time`
(the closed form behind ``simulate_channels``):

* the generator-based simulation kernel (``Simulator``, ``SimProcess``,
  ``Event``, ``EventQueue`` -- a stand-in for ``simpy``), verbatim from
  ``src/repro/network/simulation.py``;
* :func:`estimate_channel_time_scalar` -- the per-record walk that was
  ``estimate_channel_time(method="scalar")``;
* :func:`simulate_channels_event` -- the event-stepped makespan that was
  ``simulate_channels(method="event")``.

Both replays charge :func:`record_delay` per message, the per-record form
of the timing model; only the summation differs from the closed form
(``tests/test_simulation_wifi.py`` pins them within float tolerance).

The kernel is deterministic: ties in time are broken by insertion order.
A process is a Python generator that ``yield``-s a delay in seconds, an
:class:`Event` to wait for, or another process to join.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Event",
    "EventQueue",
    "SimProcess",
    "Simulator",
    "estimate_channel_time_scalar",
    "record_delay",
    "replay_process",
    "simulate_channels_event",
]


class Event:
    """A one-shot event that processes can wait on."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List["SimProcess"] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, waking every waiting process at the current time."""
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        for proc in self._waiters:
            self._sim._schedule_resume(proc, self.value)
        self._waiters.clear()
        return self

    def _add_waiter(self, proc: "SimProcess") -> None:
        if self.triggered:
            self._sim._schedule_resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class SimProcess:
    """A running generator-based process."""

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        self._sim = sim
        self._gen = gen
        self.name = name
        self.finished = False
        self.result: Any = None
        #: Event triggered when the process ends (join target).
        self.done_event = Event(sim, name=f"{name}.done")

    def _step(self, send_value: Any = None) -> None:
        """Advance the generator by one yield."""
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.done_event.succeed(stop.value)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, (int, float)):
            if yielded < 0:
                raise ValueError("cannot wait a negative delay")
            self._sim._schedule_resume(self, None, delay=float(yielded))
        elif isinstance(yielded, Event):
            yielded._add_waiter(self)
        elif isinstance(yielded, SimProcess):
            yielded.done_event._add_waiter(self)
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported value {yielded!r}; "
                "yield a delay, an Event or a SimProcess"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "finished" if self.finished else "running"
        return f"<SimProcess {self.name!r} {state}>"


@dataclass(order=True)
class _ScheduledItem:
    time: float
    seq: int
    proc: SimProcess = field(compare=False)
    send_value: Any = field(compare=False, default=None)


class EventQueue:
    """Time-ordered queue of scheduled process resumptions."""

    def __init__(self) -> None:
        self._heap: List[_ScheduledItem] = []
        self._counter = itertools.count()

    def push(self, time: float, proc: SimProcess, send_value: Any = None) -> None:
        heapq.heappush(self._heap, _ScheduledItem(time, next(self._counter), proc, send_value))

    def pop(self) -> _ScheduledItem:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class Simulator:
    """The discrete-event simulation engine."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue = EventQueue()
        self._processes: List[SimProcess] = []

    # ------------------------------------------------------------------ #

    def process(self, gen: Generator, name: str = "") -> SimProcess:
        """Register a generator as a process starting at the current time."""
        proc = SimProcess(self, gen, name=name or f"proc-{len(self._processes)}")
        self._processes.append(proc)
        self._queue.push(self.now, proc, None)
        return proc

    def event(self, name: str = "") -> Event:
        """Create a fresh (untriggered) event."""
        return Event(self, name=name)

    def timeout(self, delay: float) -> float:
        """Convenience: a value to ``yield`` for a pure delay."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return delay

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        Returns the final simulation time.
        """
        while self._queue:
            item = self._queue.pop()
            if until is not None and item.time > until:
                # Put it back and stop at the horizon.
                self._queue.push(item.time, item.proc, item.send_value)
                self.now = until
                return self.now
            if item.proc.finished:
                continue
            self.now = item.time
            item.proc._step(item.send_value)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_all(self) -> float:
        """Run until no scheduled work remains."""
        return self.run(until=None)

    # ------------------------------------------------------------------ #

    def _schedule_resume(self, proc: SimProcess, send_value: Any, delay: float = 0.0) -> None:
        self._queue.push(self.now + delay, proc, send_value)


# ---------------------------------------------------------------------- #
# replaying traffic logs
# ---------------------------------------------------------------------- #


def record_delay(link, rec) -> float:
    """Replay delay of one logged message on ``link`` (a ``WifiLinkModel``)."""
    delay = rec.packets * link.per_packet_latency_s
    delay += (rec.wire_bytes * 8.0) / link.goodput_bps
    if rec.direction == "up":
        delay += link.server_latency_s
    return delay


def estimate_channel_time_scalar(link, channel) -> float:
    """Walk the channel's records one by one, summing their delays."""
    return sum(record_delay(link, rec) for rec in channel.log.records)


def replay_process(link, sim: Simulator, records) -> Generator:
    """A simulation process that replays a traffic log message by message."""
    for rec in records:
        yield record_delay(link, rec)
    return sim.now


def simulate_channels_event(link, channels) -> float:
    """Replay the channels concurrently on one simulator; returns the makespan."""
    sim = Simulator()
    for i, channel in enumerate(channels):
        sim.process(replay_process(link, sim, channel.log.records), name=f"ch{i}")
    return sim.run_all()
