"""From round reports to named metrics, and the comparison of two records.

``BENCHMARK.json`` at the repository root is the catalogue: it names every
end-to-end and per-layer metric with its unit, its direction and (end to
end) the bound by which it may worsen.  This module computes the values
and refuses to report a set of names that differs from the catalogue.
"""

from __future__ import annotations

import functools
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.layers import LAYERS
from benchmarks.e2e.reference import NOMINAL_S

__all__ = ["EXACT", "contract", "check_rounds", "compare", "end_to_end", "per_layer"]


@functools.cache
def contract() -> Dict:
    """``BENCHMARK.json`` of the checkout this file sits in."""
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    return json.loads(path.read_text())


ALGORITHMS = ("upjoin", "srjoin", "mobijoin", "semijoin", "naive", "fixedgrid")

#: per-layer counter -> the op fact it averages over the ops of a cycle.
_FACT_COUNTERS = {
    "server.count_queries_per_op": "count_queries",
    "server.objects_returned_per_op": "objects_returned",
    "server.remote.exchanges_per_op": "exchanges",
    "server.remote.retries_per_op": "retries",
    "server.remote.failovers_per_op": "failovers",
    "server.remote.retry_bytes_per_op": "retry_bytes",
    "network.messages_per_op": "messages",
    "network.packets_per_op": "packets",
    "device.hbsj_per_op": "hbsj",
    "device.nlsj_per_op": "nlsj",
    "core.windows_pruned_per_op": "windows_pruned",
    "core.repartitions_per_op": "repartitions",
    "service.waves_per_op": "waves",
}

#: Metrics that repeat bit for bit for a given seed: they are read from
#: ``JoinResult`` / ``BrokerStats``, never from a clock.
EXACT = frozenset(
    {"wire_bytes_per_op", "link_s_per_op", "ok_op_share"}
    | set(_FACT_COUNTERS)
    | {"device.buffer_peak", "service.cache_hit_ratio", "service.coalesce_ratio"}
    | {f"{layer}.calls_per_op" for layer in LAYERS}
    | {"index.query.windows_per_call"}
)

Metrics = Dict[str, Dict[str, object]]


# ---------------------------------------------------------------------- #
# correctness
# ---------------------------------------------------------------------- #


def check_rounds(
    reports: Sequence[Dict], oracle: Dict[int, List[Optional[str]]]
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, errors)`` over the rounds of one workload.

    An op fails if it raised, returned a non-``ok`` outcome or drifted from
    its first cycle (all counted by the round itself), if its slot's pair
    sets differ from the oracle's naive join, or if its slot's facts differ
    from the first round's.
    """
    attempted = sum(len(report["ops"]) for report in reports)
    failed = sum(report["failed"] for report in reports)
    errors = [error for report in reports for error in report["errors"]]
    first = reports[0]
    for report in reports:
        bad_slots = set()
        for slot in range(report["cycle_len"]):
            got = report["digests"][slot]
            if got is None:
                continue  # every attempt raised; already counted
            expected = oracle[slot]
            if any(want is not None and want != have for want, have in zip(expected, got)):
                bad_slots.add(slot)
                errors.append(f"slot {slot}: pair set differs from the naive oracle")
            elif (got, report["facts"][slot]) != (first["digests"][slot], first["facts"][slot]):
                bad_slots.add(slot)
                errors.append(f"slot {slot}: facts differ between rounds")
        failed += sum(1 for slot, _, _ in report["ops"] if slot in bad_slots)
    return attempted, min(failed, attempted), errors[:10]


# ---------------------------------------------------------------------- #
# end-to-end metrics (untraced rounds)
# ---------------------------------------------------------------------- #


Op = Tuple[int, float, float]  # slot, op seconds, reference-kernel seconds


def _box_seconds(ops: Sequence[Op], cycle_len: int) -> List[Tuple[int, float]]:
    """``(slot, seconds)`` of a round's ops in seconds of the nominal box:
    the op times of each cycle scaled by ``NOMINAL_S`` over the cycle's
    median reference-kernel time (see :mod:`benchmarks.e2e.reference`)."""
    scaled = []
    for start in range(0, len(ops), cycle_len):
        cycle = ops[start : start + cycle_len]
        scale = NOMINAL_S / statistics.median(kernel_s for _, _, kernel_s in cycle)
        scaled.extend((slot, seconds * scale) for slot, seconds, _ in cycle)
    return scaled


def _slot_medians(rounds_ops: Sequence[Sequence[Tuple[int, float]]], cycle_len: int) -> List[float]:
    """The median time of each slot of the cycle over every time it ran.

    Both timing metrics are built on these: every slot weighs the same
    however many cycles a round fitted, and a burst of neighbour noise moves
    one sample of a slot, not the statistic.
    """
    by_slot: List[List[float]] = [[] for _ in range(cycle_len)]
    for ops in rounds_ops:
        for slot, seconds in ops:
            by_slot[slot].append(seconds)
    return [statistics.median(times) for times in by_slot]


def _ops_per_s(rounds_ops: Sequence[Sequence[Tuple[int, float]]], cycle_len: int) -> float:
    """Ops of one cycle / the cycle's time, each slot at its median."""
    return cycle_len / sum(_slot_medians(rounds_ops, cycle_len))


def _mean_fact(facts: Sequence[Optional[Dict]], key: str) -> float:
    values = [fact[key] for fact in facts if fact is not None and key in fact]
    return statistics.fmean(values) if values else 0.0


def end_to_end(reports: Sequence[Dict], attempted: int, failed: int) -> Metrics:
    """The end-to-end metrics of one workload from its untraced rounds.

    Timing metrics carry the per-round values beside the reported one, so
    a comparison can tell a difference from the spread between rounds.
    """
    cycle_len = reports[0]["cycle_len"]
    rounds_ops = [_box_seconds(report["ops"], cycle_len) for report in reports]
    facts = reports[0]["facts"]
    per_round = {
        "setup_s": [report["setup_s"] for report in reports],
        "ops_per_s": [_ops_per_s([ops], cycle_len) for ops in rounds_ops],
        "op_s.p50": [statistics.median(_slot_medians([ops], cycle_len)) for ops in rounds_ops],
        "peak_rss_mb": [report["peak_rss_kib"] / 1024 for report in reports],
    }
    values = {
        "setup_s": statistics.median(per_round["setup_s"]),
        "ops_per_s": _ops_per_s(rounds_ops, cycle_len),
        "op_s.p50": statistics.median(_slot_medians(rounds_ops, cycle_len)),
        "wire_bytes_per_op": _mean_fact(facts, "bytes"),
        "link_s_per_op": _mean_fact(facts, "link_s"),
        "ok_op_share": 1.0 - failed / attempted,
        "peak_rss_mb": max(per_round["peak_rss_mb"]),
    }
    metrics = _named(values, contract()["end_to_end"])
    for name, rounds in per_round.items():
        metrics[name]["rounds"] = rounds
    return metrics


# ---------------------------------------------------------------------- #
# per-layer metrics (the traced round; the plain round is its baseline)
# ---------------------------------------------------------------------- #


def per_layer(plain: Dict, traced: Dict) -> Metrics:
    """The per-layer metrics of one workload.  Spans and the self times made
    of them are raw seconds of the traced round; every metric made of whole
    op times is in seconds of the nominal box, like the end-to-end ones."""
    cycle_len = traced["cycle_len"]
    n_ops = len(traced["ops"])
    raw_wall = sum(seconds for _, seconds, _ in traced["ops"])
    ops = _box_seconds(traced["ops"], cycle_len)
    plain_ops = _box_seconds(plain["ops"], cycle_len)
    layers = traced["layers"]
    first_cycle = traced["first_cycle_layers"]
    facts = traced["facts"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s_per_op"] = layers["self_s"].get(layer, 0.0) / n_ops
        values[f"{layer}.calls_per_op"] = first_cycle["calls"].get(layer, 0) / cycle_len
    sized = first_cycle["sized"]
    values["index.query.windows_per_call"] = (
        sized["windows"] / sized["calls"] if sized["calls"] else 0.0
    )
    for name, key in _FACT_COUNTERS.items():
        values[name] = _mean_fact(facts, key)
    values["device.buffer_peak"] = max(
        (fact["buffer_peak"] for fact in facts if fact is not None), default=0
    )
    queries = traced["queries_per_op"] * cycle_len
    coalesced = sum(fact.get("coalesced_exchanges", 0) for fact in facts if fact)
    standalone = sum(fact.get("standalone_exchanges", 0) for fact in facts if fact)
    hits = sum(fact.get("cache_hits", 0) for fact in facts if fact)
    brokered = any(fact and "waves" in fact for fact in facts)
    values["service.cache_hit_ratio"] = hits / queries if brokered else 0.0
    values["service.coalesce_ratio"] = standalone / coalesced if coalesced else 0.0
    values["service.queries_per_s"] = (
        traced["queries_per_op"] * _ops_per_s([ops], cycle_len) if brokered else 0.0
    )
    by_algorithm: Dict[str, List[float]] = {name: [] for name in ALGORITHMS}
    for slot, seconds in ops:
        kind = traced["kinds"][slot]
        if kind is not None:
            by_algorithm[kind].append(seconds)
    for kind, seconds, kernel_s in traced["extra_ops"]:
        by_algorithm[kind].append(seconds * NOMINAL_S / kernel_s)
    for name in ALGORITHMS:
        times = by_algorithm[name]
        values[f"core.{name}.op_s"] = statistics.median(times) if times else 0.0
    values["api.op_s.p90"] = statistics.quantiles((s for _, s in ops), n=10)[-1]
    values["obs.enabled_overhead"] = statistics.median(plain["obs_ratios"])
    values["bench.trace_overhead"] = _ops_per_s([ops], cycle_len) / _ops_per_s(
        [plain_ops], cycle_len
    )
    values["bench.self_time_coverage"] = sum(layers["self_s"].values()) / raw_wall
    values["bench.raw_ops_per_s"] = _ops_per_s(
        [[(slot, seconds) for slot, seconds, _ in plain["ops"]]], cycle_len
    )
    values["bench.machine_speed"] = NOMINAL_S / statistics.median(
        kernel_s for _, _, kernel_s in plain["ops"]
    )
    return _named(values, contract()["per_layer"])


def _named(values: Dict[str, float], catalogue: Sequence[Dict]) -> Metrics:
    names = [entry["name"] for entry in catalogue]
    if set(names) != set(values):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"uncatalogued {sorted(set(values) - set(names))}"
        )
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in catalogue
    }


# ---------------------------------------------------------------------- #
# comparing two records
# ---------------------------------------------------------------------- #


def _spread(metric: Dict) -> float:
    """(max - min) / median over the rounds of a timing metric."""
    rounds = metric.get("rounds")
    if not rounds or len(rounds) < 2:
        return 0.0
    return (max(rounds) - min(rounds)) / statistics.median(rounds)


def compare(record_a: Dict, record_b: Dict) -> Tuple[List[List[str]], bool]:
    """Rows ``workload, metric, A, B, B/A, verdict`` and whether B is free
    of ``worse`` verdicts.

    End-to-end metrics are judged against their bound: ``same`` within it,
    ``worse``/``better`` beyond it, ``unresolved`` when the spread between
    either side's rounds is as wide as the bound (or as the difference).
    Exact metrics must be equal when both records ran the same seed and
    sizes.  Per-layer timings carry no bound and get no verdict.
    """
    catalogue = {
        entry["name"]: entry for entry in contract()["end_to_end"] + contract()["per_layer"]
    }
    same_inputs = all(
        record_a.get(key) == record_b.get(key) for key in ("seed", "smoke")
    )
    rows, ok = [], True
    for workload, side_a in record_a["workloads"].items():
        side_b = record_b["workloads"].get(workload)
        if side_b is None:
            continue
        for name, metric_a in side_a["metrics"].items():
            metric_b = side_b["metrics"].get(name)
            if metric_b is None or name not in catalogue:
                continue
            a, b = metric_a["value"], metric_b["value"]
            ratio = b / a if a else float("nan")
            entry = catalogue[name]
            if name in EXACT:
                if not same_inputs:
                    verdict = "-"
                elif a == b:
                    verdict = "same"
                else:
                    verdict = _direction(a, b, entry["better"])
            elif "bound" not in entry:
                verdict = "-"
            else:
                worsening = (b - a) / a if entry["better"] == "lower" else (a - b) / a
                noise = max(_spread(metric_a), _spread(metric_b))
                if abs(worsening) <= entry["bound"]:
                    verdict = "same" if noise <= entry["bound"] else "unresolved"
                elif noise >= abs(worsening):
                    verdict = "unresolved"
                else:
                    verdict = "worse" if worsening > 0 else "better"
            ok = ok and verdict != "worse"
            rows.append(
                [workload, name, f"{a:.6g}", f"{b:.6g}", f"{ratio:.4f} (B/A)", verdict]
            )
    return rows, ok


def _direction(a: float, b: float, better: str) -> str:
    return "better" if (b < a) == (better == "lower") else "worse"
