"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark may not edit ``src/``, so layers are timed from outside:
:class:`LayerTracer` is a context manager that replaces the public
callables named in :data:`TARGETS` with timing wrappers and puts the
originals back on exit.  Every call records one in-memory span
``(id, parent, layer, name, op, start, end)``; a layer's *self time* is a
span's duration minus the part its child spans cover, so the self times of
one op add up to (almost) its wall time and each second is charged to the
innermost wrapped layer that spent it.

Load is generated by one thread, so spans nest strictly and a plain stack
is the whole bookkeeping.

``geometry`` helpers are too small and hot to wrap; their time stays in
their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

__all__ = ["LAYERS", "TARGETS", "LayerTracer"]

_REMOTE_ENDPOINTS = (
    "window count window_batch window_batch_flat count_batch "
    "count_batch_prefetched range range_batch range_batch_flat bucket_range "
    "average_mbr_area"
).split()
_SERVER_ENDPOINTS = (
    "__init__ window window_batch window_batch_flat count count_batch range "
    "range_batch range_batch_flat bucket_range average_mbr_area "
    "evaluate_count_batch prime_snapshot"
).split()


def _methods(module: str, cls: str, names) -> List[str]:
    return [f"{module}:{cls}.{name}" for name in names]


#: layer -> ``"module:function"`` / ``"module:Class.attribute"`` targets.
#: Layers are the packages under ``src/repro/`` (``index`` and ``server``
#: split where one package holds work with different cost drivers).
TARGETS: Dict[str, List[str]] = {
    "datasets": [
        "repro.datasets.synthetic:clustered",
        "repro.datasets.partition:partition_dataset",
        "repro.datasets.dataset:SpatialDataset.rename",
    ],
    "index.build": ["repro.index.aggregate_rtree:AggregateRTree.from_mbr_array"],
    "index.flatten": ["repro.index.flat:FlatRTree.__init__"],
    "index.query": _methods(
        "repro.index.flat",
        "FlatRTree",
        "count_batch window_batch_flat range_batch_flat window_batch range_batch".split(),
    ),
    "index.kernels": [
        "repro.index.plane_sweep:plane_sweep_pair_arrays",
        "repro.index.plane_sweep:plane_sweep_pair_arrays_segmented",
        "repro.index.hash_join:grid_hash_join",
        "repro.index.hash_join:grid_hash_join_batch",
    ],
    "server": _methods("repro.server.server", "SpatialServer", _SERVER_ENDPOINTS)
    + _methods(
        "repro.server.sharded",
        "ShardedSpatialServer",
        ["__init__", "evaluate_count_batch", "prime_snapshot"],
    ),
    "server.remote": _methods("repro.server.remote", "RemoteServer", _REMOTE_ENDPOINTS)
    + _methods("repro.server.remote", "ShardedRemoteServer", _REMOTE_ENDPOINTS)
    + _methods(
        "repro.server.remote",
        "IndexedRemoteServer",
        "tree_height object_count level_mbrs upload_windows_and_collect "
        "upload_windows_and_collect_flat upload_objects_and_join".split(),
    )
    + [
        # ReplicatedRemoteServer inherits every endpoint from RemoteServer,
        # so its routing and fail-over land in the endpoints' self time.
        "repro.server.remote:ServerPair.connect",
        "repro.server.remote:ResilienceController.exchange",
    ],
    "network": _methods(
        "repro.network.channel",
        "Channel",
        "send_query send_response send_uniform_batch send_payload_batch "
        "snapshot reset".split(),
    )
    + ["repro.network.wifi:WifiLinkModel.simulate_channels"],
    "device": _methods(
        "repro.device.pda",
        "MobileDevice",
        "hbsj nlsj hbsj_batch nlsj_batch count_window count_windows "
        "count_windows_prefetched count_both estimated_response_time reset".split(),
    ),
    "core": [
        "repro.core.base:MobileJoinAlgorithm.run",
        "repro.core.frontier:FrontierAlgorithm.run_cooperative",
    ],
    "core.planner": [
        "repro.core.planner:build_session_stack",
        "repro.core.planner:select_algorithm",
        "repro.core.planner:build_algorithm",
    ],
    "service": ["repro.service.broker:QueryBroker.run_batch"],
    "service.cache": [
        "repro.service.cache:ResultCache.get",
        "repro.service.cache:ResultCache.put",
        "repro.service.cache:query_key",
    ],
    "api": [
        "repro.api:quick_join",
        "repro.api:AdHocJoinSession.__init__",
        "repro.api:AdHocJoinSession.run",
    ],
}

LAYERS: Tuple[str, ...] = tuple(TARGETS)

#: Spans of these layers also record how many windows / points the call
#: carried (their first positional argument after ``self``).
_SIZED_LAYERS = frozenset({"index.query"})

Span = Tuple[int, int, str, str, int, float, float]


class LayerTracer:
    """Install timing wrappers around :data:`TARGETS`; restore on exit.

    Set :attr:`op` to the current op's index before each timed op (``-1``,
    the default, marks set-up work).  After the ``with`` block,
    :meth:`leaked` confirms every patched attribute is its original again
    and :meth:`rollup` reduces the spans to per-layer totals.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(span id, batch size)`` of the sized calls.
        self.sizes: List[Tuple[int, int]] = []
        self.op = -1
        self._stack: List[int] = []
        self._next_id = 0
        #: ``(owner, attribute, original, wrapper)`` of every patch made.
        self.patches: List[Tuple[object, str, object, object]] = []

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "LayerTracer":
        try:
            for layer, targets in TARGETS.items():
                for target in targets:
                    self._install(layer, target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _install(self, layer: str, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner).get(attr)
            if original is None:
                raise LookupError(f"{target}: {owner_name} defines no {attr!r}")
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(
                    self._wrap(original.__func__, layer, qualname, sized=False)
                )
            else:
                wrapped = self._wrap(
                    original, layer, qualname, sized=layer in _SIZED_LAYERS
                )
            self._patch(owner, attr, original, wrapped)
            return
        original = vars(module).get(qualname)
        if original is None:
            raise LookupError(f"{target}: module defines no {qualname!r}")
        wrapped = self._wrap(original, layer, qualname, sized=False)
        # ``from x import f`` copies the reference, so rebind every loaded
        # repro module that holds this very function object.
        for name, holder in list(sys.modules.items()):
            if holder is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, alias, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self.patches.append((owner, attr, original, wrapped))

    def _restore(self) -> None:
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def leaked(self) -> List[str]:
        """Patched attributes that are not their original object (again)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, _ in self.patches
            if vars(owner)[attr] is not original
        ]

    # ------------------------------------------------------------------ #
    # the wrappers
    # ------------------------------------------------------------------ #

    def _wrap(self, fn: Callable, layer: str, name: str, sized: bool) -> Callable:
        stack = self._stack
        spans = self.spans
        sizes = self.sizes
        clock = time.perf_counter

        def enter() -> Tuple[int, int, float]:
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            return span_id, parent, clock()

        def leave(span_id: int, parent: int, start: float) -> None:
            end = clock()
            stack.pop()
            spans.append((span_id, parent, layer, name, self.op, start, end))

        if inspect.isgeneratorfunction(fn):
            # A cooperative generator does its work inside send(); each
            # resume is one span, the time it sits suspended is its
            # driver's.

            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                sent = None
                while True:
                    frame = enter()
                    try:
                        value = gen.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave(*frame)
                    sent = yield value

        elif sized:

            def wrapper(self_, batch, *args, **kwargs):
                frame = enter()
                sizes.append((frame[0], len(batch)))
                try:
                    return fn(self_, batch, *args, **kwargs)
                finally:
                    leave(*frame)

        else:

            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(*frame)

        return functools.update_wrapper(wrapper, fn)

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #

    def rollup(self, ops: range) -> Dict[str, Dict[str, float]]:
        """Per-layer ``self_s`` and ``calls`` over the given op ids, plus
        the windows carried by the sized (``index.query``) calls."""
        child_s: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, _, start, end in self.spans:
            child_s[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        op_of: Dict[int, int] = {}
        for span_id, _, layer, _, op, start, end in self.spans:
            op_of[span_id] = op
            if op in ops:
                self_s[layer] += (end - start) - child_s.get(span_id, 0.0)
                calls[layer] += 1
        sized = [size for span_id, size in self.sizes if op_of[span_id] in ops]
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "sized": {"windows": sum(sized), "calls": len(sized)},
        }

    def dump(self) -> Dict[str, object]:
        """The spans in a JSON-ready form (written when the round ends)."""
        return {
            "columns": ["id", "parent", "layer", "name", "op", "start_s", "end_s"],
            "spans": [list(span) for span in self.spans],
        }
