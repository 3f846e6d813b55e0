"""Workload definitions and the timed loop of the end-to-end benchmark.

A workload is a JSON file under ``workloads/`` (sizes, clusters, epsilon,
buffer, topology, fault rates, op mix, ops per cycle and the reason it
exists) interpreted by one of three drivers, picked by its ``kind``:

``cold``
    every op is a fresh :func:`repro.api.quick_join` -- datasets, servers
    and indexes are rebuilt each time, as a one-shot user pays;
``session``
    ops are ``AdHocJoinSession.run`` calls on sessions built and primed
    during set-up (optionally sharded, replicated and fault-injected);
``broker``
    ops are ``QueryBroker.run_batch`` calls of windowed queries on one
    long-lived caching broker.

Every workload is a closed loop with one client, no think time and
``workers=0``.  Its ops form a fixed *cycle* derived from the seed: op
``i`` of the cycle joins dataset pair ``i % dataset_pairs`` with algorithm
``algorithms[i % len(algorithms)]``.  Several dataset pairs per seed keep
the byte and link-time averages from hanging on one draw of the cluster
centres.  A round repeats the cycle until its time is up; the deterministic
facts (bytes, simulated link time, pair-set digests, work counters) are
taken from the first cycle and must repeat on every later one.

Repro functions are always reached through their module (``api.quick_join``,
never a ``from`` import) so the layer tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import api
from repro.core import planner
from repro.core.join_types import JoinSpec
from repro.datasets import synthetic
from repro.geometry.rect import Rect
from repro.network.faults import FaultPlan, replica_outages
from repro.obs import MetricsRegistry, Tracer

from benchmarks.e2e.layers import LayerTracer
from benchmarks.e2e.reference import ReferenceKernel

__all__ = ["load_spec", "spec_names", "make_workload", "run_round", "oracle_digests"]

SPEC_DIR = Path(__file__).resolve().parent / "workloads"

# ---------------------------------------------------------------------- #
# declarative specs
# ---------------------------------------------------------------------- #

_COMMON_KEYS = {"name", "why", "kind", "data", "join", "algorithms", "ops_per_cycle"}
#: kind -> (required, optional) keys beside the common ones.
_KIND_KEYS = {
    "cold": (set(), set()),
    "session": (set(), {"topology", "faults", "traced_only_algorithms"}),
    "broker": ({"batch", "oracle_one_in"}, set()),
}
_SECTION_KEYS = {
    "data": {"n", "clusters", "dataset_pairs"},
    "join": {"epsilon", "buffer_size"},
    "topology": {"shards_r", "shards_s", "shard_scheme", "replicas"},
    "faults": {
        "drop_rate",
        "stall_rate",
        "duplicate_rate",
        "outage_shard",
        "outage_replicas",
    },
    "batch": {"queries", "repeated", "window_side"},
}


def spec_names() -> List[str]:
    """Names of every workload file, in a fixed order."""
    return sorted(path.stem for path in SPEC_DIR.glob("*.json"))


def load_spec(name: str, smoke: bool = False) -> Dict:
    """Read and validate ``workloads/<name>.json``; unknown keys are errors.
    ``smoke`` shrinks the cycle (see :func:`_smoke_scaled`)."""
    path = SPEC_DIR / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"unknown workload {name!r}; available: {spec_names()}")
    spec = json.loads(path.read_text())
    kind = spec.get("kind")
    if kind not in _KIND_KEYS:
        raise ValueError(f"{path.name}: kind must be one of {sorted(_KIND_KEYS)}")
    required, optional = _KIND_KEYS[kind]
    _check_keys(path.name, spec, _COMMON_KEYS | required, _COMMON_KEYS | required | optional)
    for section, allowed in _SECTION_KEYS.items():
        if section in spec:
            _check_keys(f"{path.name}:{section}", spec[section], allowed, allowed)
    if spec["name"] != name:
        raise ValueError(f"{path.name}: name is {spec['name']!r}")
    if spec["ops_per_cycle"] < len(spec["algorithms"]):
        raise ValueError(f"{path.name}: a cycle must hold every algorithm once")
    return _smoke_scaled(spec) if smoke else spec


def _check_keys(where: str, mapping: Dict, required: set, allowed: set) -> None:
    unknown = set(mapping) - allowed
    missing = required - set(mapping)
    if unknown or missing:
        raise ValueError(
            f"{where}: unknown keys {sorted(unknown)}, missing keys {sorted(missing)}"
        )


def _smoke_scaled(spec: Dict) -> Dict:
    """A quarter of the ops per cycle (never fewer than one per algorithm)
    on no more dataset pairs than the shorter cycle touches."""
    scaled = dict(spec)
    ops = max(len(spec["algorithms"]), spec["ops_per_cycle"] // 4)
    scaled["ops_per_cycle"] = ops
    scaled["data"] = dict(spec["data"], dataset_pairs=min(spec["data"]["dataset_pairs"], ops))
    return scaled


# ---------------------------------------------------------------------- #
# deterministic facts of one op
# ---------------------------------------------------------------------- #

#: Facts that add up over the queries of one op; ``buffer_peak`` is a max.
_ADDITIVE_FACTS = (
    "bytes link_s pairs count_queries objects_returned messages packets hbsj "
    "nlsj windows_pruned repartitions exchanges retries failovers retry_bytes"
).split()


def pair_digest(pairs) -> str:
    """Order-independent digest of a pair set."""
    arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def result_facts(result) -> Dict[str, float]:
    """The bit-repeatable numbers of one ``JoinResult``."""
    stats = result.server_stats.values()
    chans = result.channel_stats.values()
    ops = result.operator_counts
    res = result.resilience or {}
    return {
        "bytes": result.total_bytes,
        "link_s": result.estimated_time_s,
        "pairs": len(result.pairs),
        "count_queries": sum(s["count_queries"] for s in stats),
        "objects_returned": sum(s["objects_returned"] for s in stats),
        "messages": sum(c["messages_up"] + c["messages_down"] for c in chans),
        "packets": sum(c["uplink_packets"] + c["downlink_packets"] for c in chans),
        "hbsj": ops["hbsj_invocations"],
        "nlsj": ops["nlsj_invocations"],
        "windows_pruned": ops["windows_pruned"],
        "repartitions": ops["repartitions"],
        "buffer_peak": result.buffer_high_water_mark,
        "exchanges": res.get("exchanges", 0),
        "retries": res.get("retries", 0),
        "failovers": res.get("failovers", 0),
        "retry_bytes": sum(res.get("retry_bytes", {}).values()),
    }


def _merge_facts(parts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    merged = {key: sum(part[key] for part in parts) for key in _ADDITIVE_FACTS}
    merged["buffer_peak"] = max((part["buffer_peak"] for part in parts), default=0)
    return merged


# ---------------------------------------------------------------------- #
# workload drivers
# ---------------------------------------------------------------------- #


class _Workload:
    """Shared plumbing: the op cycle, seeded dataset pairs, obs hooks."""

    def __init__(self, spec: Dict, seed: int, obs: bool = False) -> None:
        self.spec = spec
        self.seed = seed
        self.cycle_len: int = spec["ops_per_cycle"]
        self.algorithms: List[Optional[str]] = spec["algorithms"]
        self.pairs: int = spec["data"]["dataset_pairs"]
        self.epsilon: float = spec["join"]["epsilon"]
        self.buffer_size: int = spec["join"]["buffer_size"]
        #: ``Tracer`` + ``MetricsRegistry`` when measuring what ``repro.obs``
        #: costs while enabled; empty otherwise.
        self.hooks = {"tracer": Tracer(), "metrics": MetricsRegistry()} if obs else {}

    def plan(self, slot: int) -> Tuple[int, Optional[str]]:
        """``(dataset pair, algorithm)`` of cycle position ``slot``."""
        return slot % self.pairs, self.algorithms[slot % len(self.algorithms)]

    def dataset_pair(self, j: int):
        data = self.spec["data"]
        base = self.seed * 1000 + j
        return tuple(
            synthetic.clustered(
                n=data["n"], clusters=data["clusters"], seed=base + offset, name=name
            )
            for name, offset in (("R", 0), ("S", 500))
        )

    # -- the driver interface ------------------------------------------ #

    def setup(self) -> None:
        """Build whatever outlives an op."""

    def warm_up(self) -> None:
        """One untimed op per distinct op kind (the first of each algorithm)."""
        for slot in range(len(self.algorithms)):
            self.run_op(slot)
        self.begin_cycle()

    def begin_cycle(self) -> None:
        """Called before slot 0 of every cycle."""

    def run_op(self, slot: int):
        raise NotImplementedError

    def facts(self, slot: int, output) -> Tuple[Dict[str, float], List[str]]:
        """``(facts, pair-set digests)`` of one op's output; raises if the
        program reported a failure."""
        return result_facts(output), [pair_digest(output.pairs)]

    def kind_of(self, slot: int) -> Optional[str]:
        """The algorithm a slot times on its own (``None``: a mixed batch)."""
        return self.plan(slot)[1]

    def queries_per_op(self) -> int:
        return 1

    def extra_ops(self) -> List[Tuple[str, object]]:
        """``(algorithm, thunk)`` ops timed in the traced pass only."""
        return []

    def oracle(self) -> Dict[int, List[Optional[str]]]:
        """slot -> expected digests (``None``: position not sampled), from
        standalone plain-stack naive joins."""
        per_pair = {}
        out = {}
        for slot in range(self.cycle_len):
            j, _ = self.plan(slot)
            if j not in per_pair:
                per_pair[j] = _naive_digest(
                    *self.dataset_pair(j), self.epsilon, self.buffer_size, None
                )
            out[slot] = [per_pair[j]]
        return out


def _naive_digest(dataset_r, dataset_s, epsilon, buffer_size, window) -> str:
    result = planner.run_join(
        dataset_r,
        dataset_s,
        JoinSpec.distance(epsilon),
        algorithm="naive",
        buffer_size=buffer_size,
        window=window,
    )
    return pair_digest(result.pairs)


class ColdJoin(_Workload):
    def run_op(self, slot: int):
        j, algorithm = self.plan(slot)
        dataset_r, dataset_s = self.dataset_pair(j)
        return api.quick_join(
            dataset_r,
            dataset_s,
            algorithm=algorithm,
            epsilon=self.epsilon,
            buffer_size=self.buffer_size,
            **self.hooks,
        )


class Session(_Workload):
    def setup(self) -> None:
        spec = self.spec
        faults = None
        if "faults" in spec:
            f = spec["faults"]
            faults = FaultPlan(
                seed=self.seed,
                drop_rate=f["drop_rate"],
                stall_rate=f["stall_rate"],
                duplicate_rate=f["duplicate_rate"],
                outages=replica_outages(
                    f["outage_shard"],
                    spec["topology"]["replicas"],
                    0,
                    10**9,
                    indices=f["outage_replicas"],
                ),
            )
        self._session_kwargs = dict(
            buffer_size=self.buffer_size,
            indexed="semijoin" in self.algorithms,
            faults=faults,
            **self.hooks,
        )
        self.sessions = []
        for j in range(self.pairs):
            session = api.AdHocJoinSession(
                *self.dataset_pair(j), **spec.get("topology", {}), **self._session_kwargs
            )
            session.server_r.prime_snapshot()
            session.server_s.prime_snapshot()
            self.sessions.append(session)

    def begin_cycle(self) -> None:
        # A session keeps every JoinResult it produced (``session.history``):
        # over one long session the heap grew by 38 MiB and the op time by
        # 4-8% per cycle, so a round's speed depended on how many ops it had
        # fitted.  Each cycle therefore opens new sessions on the long-lived
        # servers, which costs no index build and leaves the heap as the
        # first cycle found it.
        self.sessions = [
            api.AdHocJoinSession(
                session.dataset_r,
                session.dataset_s,
                servers=(session.server_r, session.server_s),
                **self._session_kwargs,
            )
            for session in self.sessions
        ]

    def run_op(self, slot: int):
        j, algorithm = self.plan(slot)
        return self.sessions[j].run(algorithm=algorithm, epsilon=self.epsilon)

    def extra_ops(self):
        return [
            (name, lambda name=name: self.sessions[0].run(algorithm=name, epsilon=self.epsilon))
            for name in self.spec.get("traced_only_algorithms", [])
        ]


class Broker(_Workload):
    def setup(self) -> None:
        batch = self.spec["batch"]
        self.broker = api.QueryBroker(cache=True, **self.hooks)
        rng = np.random.default_rng([self.seed, 0xB0C])
        join = JoinSpec.distance(self.epsilon)
        datasets = [self.dataset_pair(j) for j in range(self.pairs)]
        new = batch["queries"] - batch["repeated"]
        repeated = batch["repeated"]

        def fresh_queries(slot: int, count: int) -> List[api.JoinQuery]:
            dataset_r, dataset_s = datasets[slot % self.pairs]
            bounds = dataset_r.bounds().union(dataset_s.bounds())
            side_x = batch["window_side"] * bounds.width
            side_y = batch["window_side"] * bounds.height
            queries = []
            for i in range(count):
                x0 = bounds.xmin + rng.random() * (bounds.width - side_x)
                y0 = bounds.ymin + rng.random() * (bounds.height - side_y)
                queries.append(
                    api.JoinQuery(
                        dataset_r,
                        dataset_s,
                        join,
                        algorithm=self.algorithms[i % len(self.algorithms)],
                        buffer_size=self.buffer_size,
                        window=Rect(x0, y0, x0 + side_x, y0 + side_y),
                    )
                )
            return queries

        # The repeated quarter of a batch comes from the latest batch on the
        # same dataset pair, so it hits the result cache.  For the first
        # batch of a pair that is a batch from before the cycle, of which
        # only the repeated part is ever run: it primes a cleared cache.
        before = [fresh_queries(slot, repeated) for slot in range(self.pairs)]
        self.batches = [fresh_queries(slot, new) for slot in range(self.cycle_len)]
        for queries, earlier in zip(self.batches, before + self.batches):
            queries.extend(earlier[:repeated])
        self._primer = [query for queries in before for query in queries]

    def warm_up(self) -> None:
        # One query per algorithm on every dataset pair: builds and primes
        # the broker's server cache, which a long-lived broker already has.
        for slot in range(self.pairs):
            self.broker.run_batch(self.batches[slot][: len(self.algorithms)])
        self.begin_cycle()

    def begin_cycle(self) -> None:
        # The cycle repeats its windows, so the cache starts each cycle
        # holding only what the previous batch of each pair would have left.
        self.broker.cache.clear()
        self.broker.run_batch(self._primer)
        self._stats = self.broker.stats.as_dict()

    def run_op(self, slot: int):
        return self.broker.run_batch(self.batches[slot])

    def facts(self, slot: int, outcomes):
        bad = [o for o in outcomes if o.status != "ok"]
        if bad:
            raise RuntimeError(f"{len(bad)} queries not ok: {bad[0].status} {bad[0].error!r}")
        facts = _merge_facts([result_facts(o.result) for o in outcomes if not o.cached])
        stats = self.broker.stats.as_dict()
        for key in ("cache_hits", "waves", "coalesced_exchanges", "standalone_exchanges"):
            facts[key] = stats[key] - self._stats[key]
        self._stats = stats
        return facts, [pair_digest(o.result.pairs) for o in outcomes]

    def kind_of(self, slot: int) -> Optional[str]:
        return None

    def queries_per_op(self) -> int:
        return self.spec["batch"]["queries"]

    def oracle(self):
        self.setup()
        per_op = self.queries_per_op()
        total = self.cycle_len * per_op
        rng = np.random.default_rng([self.seed, 0x0AC1E])
        sampled = rng.choice(total, size=total // self.spec["oracle_one_in"], replace=False)
        out: Dict[int, List[Optional[str]]] = {
            slot: [None] * per_op for slot in range(self.cycle_len)
        }
        for index in sorted(int(i) for i in sampled):
            slot, pos = divmod(index, per_op)
            query = self.batches[slot][pos]
            out[slot][pos] = _naive_digest(
                query.dataset_r, query.dataset_s, self.epsilon, self.buffer_size, query.window
            )
        return out


_DRIVERS = {"cold": ColdJoin, "session": Session, "broker": Broker}


def make_workload(spec: Dict, seed: int, obs: bool = False) -> _Workload:
    return _DRIVERS[spec["kind"]](spec, seed, obs=obs)


def oracle_digests(spec: Dict, seed: int) -> Dict[int, List[Optional[str]]]:
    """Expected pair-set digests per cycle slot (run outside every timed
    loop, in the orchestrating process)."""
    return make_workload(spec, seed).oracle()


# ---------------------------------------------------------------------- #
# one round: set-up, warm-up, the timed closed loop
# ---------------------------------------------------------------------- #


def run_round(
    spec: Dict,
    seed: int,
    seconds: float,
    process_start: float,
    traced: bool = False,
    obs_pairs: int = 0,
    trace_path: Optional[Path] = None,
) -> Dict:
    """Run one round of one workload in this process and report it.

    ``process_start`` is the ``perf_counter`` reading taken when the
    process began, so ``setup_s`` covers imports as well.  ``traced``
    installs the layer tracer for the whole round; ``obs_pairs`` appends
    that many plain-vs-hooked op pairs after the timed loop.  Each entry of
    ``ops`` is ``(slot, op seconds, seconds of the reference kernel run just
    before it)``.
    """
    clock = time.perf_counter
    kernel = ReferenceKernel()
    with (LayerTracer() if traced else contextlib.nullcontext()) as tracer:
        workload = make_workload(spec, seed)
        workload.setup()
        workload.warm_up()
        setup_s = clock() - process_start

        n = workload.cycle_len
        ops: List[Tuple[int, float, float]] = []
        facts: List[Optional[Dict]] = [None] * n
        digests: List[Optional[List[str]]] = [None] * n
        errors: List[str] = []
        failed = 0
        i = 0
        loop_start = clock()
        while i < n or clock() - loop_start < seconds:
            slot = i % n
            if slot == 0:
                workload.begin_cycle()  # untimed, and charged to no op
            kernel_s = kernel()
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                output = workload.run_op(slot)
                t1 = clock()
                op_facts, op_digests = workload.facts(slot, output)
                if facts[slot] is None:
                    facts[slot], digests[slot] = op_facts, op_digests
                elif (op_facts, op_digests) != (facts[slot], digests[slot]):
                    raise RuntimeError("facts differ from the first cycle's")
            except Exception as exc:  # an op that raises is a failed op
                t1 = clock()
                failed += 1
                if len(errors) < 5:
                    errors.append(f"slot {slot}: {exc!r}")
            if tracer is not None:
                tracer.op = -1
            ops.append((slot, t1 - t0, kernel_s))
            i += 1
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        report = {
            "setup_s": setup_s,
            "peak_rss_kib": peak_rss_kib,
            "cycle_len": n,
            "queries_per_op": workload.queries_per_op(),
            "kinds": [workload.kind_of(slot) for slot in range(n)],
            "ops": ops,
            "facts": facts,
            "digests": digests,
            "failed": failed,
            "errors": errors,
        }
        if tracer is not None:
            extra = []
            for name, thunk in workload.extra_ops():
                kernel_s = kernel()
                t0 = clock()
                thunk()
                extra.append((name, clock() - t0, kernel_s))
            report["extra_ops"] = extra
        if obs_pairs:
            report["obs_ratios"] = _obs_ratios(spec, seed, workload, obs_pairs)
    if tracer is not None:
        # Self times over every timed op; call counts over the first cycle
        # only, so they repeat exactly however many ops the round fitted.
        report["layers"] = tracer.rollup(range(i))
        report["first_cycle_layers"] = tracer.rollup(range(n))
        report["leaked"] = tracer.leaked()
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(tracer.dump()))
    return report


def _obs_ratios(spec: Dict, seed: int, plain: _Workload, pairs: int) -> List[float]:
    """Paired hooked/plain op-time ratios: each op runs once on the plain
    stack and once on one with ``Tracer()`` + ``MetricsRegistry()``
    attached, alternating which goes first."""
    clock = time.perf_counter
    hooked = make_workload(spec, seed, obs=True)
    hooked.setup()
    hooked.warm_up()
    ratios = []
    for i in range(pairs):
        slot = i % plain.cycle_len
        if slot == 0:
            plain.begin_cycle()
            hooked.begin_cycle()
        times = {}
        order = (plain, hooked) if i % 2 == 0 else (hooked, plain)
        for workload in order:
            t0 = clock()
            workload.run_op(slot)
            times[workload] = clock() - t0
        hooked.hooks["tracer"].clear()
        ratios.append(times[hooked] / times[plain])
    return ratios
