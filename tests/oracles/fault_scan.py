"""The per-attempt schedule scan ``FaultInjector.next_event`` shipped at 57dd8dc.

Kept verbatim in behaviour as the oracle of the injector that finds its own
channel's disconnect index and outage windows once, at construction: here
every attempt scans *all* of the plan's disconnects and outages, matching
the channel by exact name, and sums the rates again for each threshold.
The RNG substream, its block buffering and the one-draw-per-attempt rule
are the shipped ones, so the two injectors must draw identical verdicts
for any plan and any label sequence.
"""

from __future__ import annotations

import zlib
from typing import List, Tuple

import numpy as np

from repro.network.faults import FaultEvent, FaultKind, FaultPlan, Outage


def covers(outage: Outage, op_index: int) -> bool:
    """Whether ``outage`` holds its server down at attempt ``op_index``."""
    return outage.start <= op_index < outage.start + outage.length


class ScanningInjector:
    """One channel's fault stream, scanning the whole plan per attempt."""

    _BLOCK = 256

    def __init__(self, plan: FaultPlan, server_name: str) -> None:
        self.plan = plan
        self.server = server_name
        self._rng = np.random.default_rng(
            (plan.seed, zlib.crc32(server_name.encode("utf-8")))
        )
        self._buffer: List[float] = []
        self._buffer_pos = 0
        self.op_index = 0
        self.events: List[FaultEvent] = []

    def _next_uniform(self) -> float:
        if self._buffer_pos >= len(self._buffer):
            self._buffer = self._rng.random(self._BLOCK).tolist()
            self._buffer_pos = 0
        draw = self._buffer[self._buffer_pos]
        self._buffer_pos += 1
        return draw

    def next_event(self, label: str) -> FaultEvent:
        op = self.op_index
        self.op_index += 1
        draw = self._next_uniform()
        plan = self.plan
        kind = FaultKind.OK
        latency = 0.0
        if any(d.server == self.server and op >= d.at for d in plan.disconnects):
            kind = FaultKind.DISCONNECT
        elif any(o.server == self.server and covers(o, op) for o in plan.outages):
            kind = FaultKind.UNAVAILABLE
        elif draw < plan.drop_rate:
            kind = FaultKind.DROP
        elif draw < plan.drop_rate + plan.stall_rate:
            kind = FaultKind.STALL
            latency = plan.stall_latency_s
        elif draw < plan.drop_rate + plan.stall_rate + plan.duplicate_rate:
            kind = FaultKind.DUPLICATE
        event = FaultEvent(op_index=op, kind=kind, label=label, latency_s=latency)
        self.events.append(event)
        return event

    def event_tuples(self) -> Tuple[Tuple[int, str, str], ...]:
        return tuple(event.as_tuple() for event in self.events)
