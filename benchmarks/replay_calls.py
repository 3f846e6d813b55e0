"""Capture the index / kernel calls a workload really makes; replay them on any checkout.

Sizes a change to ``index/flat.py`` or ``index/hash_join.py`` in seconds
and proves its outputs unchanged on the calls the end-to-end workloads make
(run from the repo root)::

    python3 benchmarks/replay_calls.py capture warm_session 41 --out /root/scratch/warm.pkl
    python3 benchmarks/replay_calls.py replay /root/scratch/warm.pkl /root/scratch/parent . --rounds 9
    python3 benchmarks/replay_calls.py compare /root/scratch/warm.parent.npz /root/scratch/warm.repo.npz
    python3 benchmarks/replay_calls.py replay warm.pkl ../parent . --rounds 5 --memory

``capture`` runs one cycle of a ``benchmarks/e2e`` workload (the harness is
imported, never edited) with wrappers around the three ``FlatRTree`` batch
descents, the join kernel (in every module that imports it, SemiJoin's
server JOIN included) and the plane sweep (which no workload reaches since
the kernel stopped calling it), and pickles *version-agnostic*
arguments: plain arrays, the queried trees as their constructor arrays, the
predicate as ``(class name, probe radius)``.  ``replay`` rebuilds them in one
subprocess per checkout and round (``<checkout>/src`` first on ``sys.path``),
times every call -- alternating the checkouts when given two -- and saves
the first round's outputs as ``<capture stem>.<checkout name>.npz``.  Per
method it prints the smallest pass total, the sum over calls of each call's
minimum across rounds, and a call's fixed cost (the intercept of a
least-squares line of call time against rows).  With ``--memory`` the
first round of every checkout also replays each call once more, untimed,
under ``tracemalloc`` and prints each method's largest peak (MiB over what
was allocated before the call: its working set and its answer) beside the
times -- the calls the workloads really make, held to the transient budget
(``repro.index.budget``).  ``compare`` is ``array_equal`` + dtype, call by
call.  Timings on a shared box wobble +-10% even as a minimum pass: judge a
change by the sum of call minima, over at least five alternating rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TREE_FIELDS = (
    "node_cols", "is_leaf", "entry_cols", "entry_oids", "ent_start", "ent_end",
    "child_start", "child_end", "child_ids", "roots",
)
DESCENTS = ("count_batch", "window_batch_flat", "range_batch_flat")


def capture(workload: str, seed: int, out: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e import harness
    from repro.device import hbsj
    from repro.index import hash_join, plane_sweep
    from repro.index.flat import FlatRTree
    from repro.server import server

    trees, calls = {}, []

    def predicate_of(predicate):
        return type(predicate).__name__, predicate.probe_radius()

    def descent(name):
        inner = getattr(FlatRTree, name)

        def wrapper(self, *args):
            # Keyed by identity; the tree itself is kept so its id is not reused.
            key = trees.setdefault(id(self), (len(trees), self))[0]
            calls.append((name, key, tuple(None if a is None else np.array(a) for a in args)))
            return inner(self, *args)

        setattr(FlatRTree, name, wrapper)

    def sweep(a, a_segs, b, b_segs, predicate, inner=plane_sweep.plane_sweep_pair_arrays_segmented):
        args = tuple(np.array(x) for x in (a, a_segs, b, b_segs))
        calls.append(("sweep", None, (*args, predicate_of(predicate))))
        return inner(a, a_segs, b, b_segs, predicate)

    def join(items, predicate, inner=hash_join.grid_hash_join_batch):
        batch = items if isinstance(items, hash_join.JoinBatch) else hash_join.JoinBatch.from_items(items)
        fields = tuple(np.array(f) for f in batch)
        calls.append(("join", None, (fields, predicate_of(predicate))))
        return inner(items, predicate)

    for name in DESCENTS:
        descent(name)
    # ``from x import f`` copies the reference: rebind every module that holds one.
    plane_sweep.plane_sweep_pair_arrays_segmented = sweep
    hash_join.grid_hash_join_batch = join
    hbsj.grid_hash_join_batch = join
    server.grid_hash_join_batch = join  # SemiJoin's server JOIN

    w = harness.make_workload(harness.load_spec(workload), seed)
    w.setup()
    w.warm_up()
    del calls[:]
    w.begin_cycle()
    for slot in range(w.cycle_len):
        w.run_op(slot)
    arrays = [None] * len(trees)
    for key, tree in trees.values():
        # The entry block is not kept by the index: it is gathered back from the page table.
        arrays[key] = {
            field: np.ascontiguousarray(tree.entry_mbrs.T) if field == "entry_cols" else getattr(tree, field)
            for field in TREE_FIELDS
        }
    with open(out, "wb") as fh:
        pickle.dump({"workload": workload, "seed": seed, "trees": arrays, "calls": calls}, fh, protocol=4)
    by_method = {}
    for name, _, args in calls:
        n, rows = by_method.get(name, (0, 0))
        by_method[name] = (n + 1, rows + (args[0].shape[0] if name in DESCENTS or name == "sweep" else 0))
    print(json.dumps({"out": str(out), "trees": len(arrays), "calls (n, rows)": by_method}))


def _worker(capture_path: str, checkout: str, save: str, memory: bool) -> None:
    """One timed pass over every captured call against ``checkout``'s package
    (and, with ``memory``, one untimed pass measuring each call's peak)."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from repro.geometry import predicates
    from repro.index.flat import FlatRTree
    from repro.index.hash_join import JoinBatch, grid_hash_join_batch
    from repro.index.plane_sweep import plane_sweep_pair_arrays_segmented

    with open(capture_path, "rb") as fh:  # written by ``capture`` above, nothing else
        cap = pickle.load(fh)
    trees = [FlatRTree(**arrays) for arrays in cap["trees"]]

    def predicate(spec):
        name, radius = spec
        return predicates.WithinDistancePredicate(radius) if name == "WithinDistancePredicate" else getattr(predicates, name)()

    def bound(name, key, args):
        """``(call, args, rows)`` of one captured call."""
        if name in DESCENTS:
            return getattr(trees[key], name), args, args[0].shape[0]
        if name == "sweep":
            args = (*args[:4], predicate(args[4]))
            return plane_sweep_pair_arrays_segmented, args, args[0].shape[0] + args[2].shape[0]
        # (Captures made before the kernel lost its ``grids=`` option
        # carry an empty third argument.)
        batch = JoinBatch(*args[0])
        return grid_hash_join_batch, (batch, predicate(args[1])), batch.a_mbrs.shape[0] + batch.b_mbrs.shape[0]

    timed, outputs, peaks = [], {}, []
    gc.collect()
    for i, (name, key, args) in enumerate(cap["calls"]):
        call, args, rows = bound(name, key, args)
        t0 = time.perf_counter()
        result = call(*args)
        timed.append((name, rows, time.perf_counter() - t0))
        if save:
            parts = result if isinstance(result, tuple) else (result,)
            if name == "sweep":  # its pair order is an implementation detail
                order = np.lexsort((parts[1], parts[0]))
                parts = tuple(p[order] for p in parts)
            for k, part in enumerate(parts):
                outputs[f"{i:06d}.{name}.{k}"] = part
    if save:
        np.savez(save, **outputs)
    if memory:
        gc.collect()
        tracemalloc.start()
        for name, key, args in cap["calls"]:
            call, args, _ = bound(name, key, args)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            del result
        tracemalloc.stop()
    print(json.dumps({"timed": timed, "peaks": peaks}))


def replay(capture_path: Path, checkouts, rounds: int, memory: bool = False) -> None:
    """Per checkout and method, three readings over ``rounds`` passes (and,
    with ``memory``, a fourth: ``tracemalloc peak MiB``, the largest peak of
    one call):

    * ``min pass``: the smallest per-pass total (what one pass costs when
      nothing interferes with the whole of it);
    * ``sum of call minima``: every call's fastest round, summed -- noise
      that hits one call in one pass drops out, so this is the steadier
      reading on a busy box;
    * ``intercept us``: the fixed cost of a call, the intercept of a
      least-squares line through the call minima against the call's rows
      (windows / probes for a descent, both sides' rows for a kernel).
    """
    passes, minima, peaks = {}, {}, {}
    for rnd in range(rounds):
        # Alternate which checkout runs first.
        for checkout in checkouts if rnd % 2 == 0 else checkouts[::-1]:
            label = Path(checkout).resolve().name
            save = str(capture_path.with_suffix(f".{label}.npz")) if rnd == 0 else ""
            flags = ["--memory"] if memory and rnd == 0 else []
            done = subprocess.run(
                [sys.executable, __file__, "_worker", str(capture_path), checkout, save, *flags],
                check=True, capture_output=True, text=True,
            )
            out = json.loads(done.stdout.strip().splitlines()[-1])
            names, rows, seconds = map(np.array, zip(*out["timed"]))
            if out["peaks"]:
                peaks[label] = np.array(out["peaks"]) / 2**20
            minima[label] = np.minimum(minima.get(label, seconds), seconds)
            mine = passes.setdefault(label, {})
            for name in dict.fromkeys(names.tolist()):
                total = seconds[names == name].sum()
                mine[name] = min(mine.get(name, total), total)
    # Every checkout replays the same calls in the same order.
    of = {name: names == name for name in dict.fromkeys(names.tolist())}
    readings = {
        label: {
            "min pass": mine,
            "sum of call minima": {name: minima[label][at].sum() for name, at in of.items()},
            "intercept us": {
                name: 1e6 * np.polyfit(rows[at], minima[label][at], 1)[1] for name, at in of.items()
            },
            **(
                {"tracemalloc peak MiB": {name: peaks[label][at].max() for name, at in of.items()}}
                if label in peaks
                else {}
            ),
        }
        for label, mine in passes.items()
    }
    # In a capture of a checkout whose kernel swept (before the epsilon-cell
    # join), ``join`` contains the sweeps it made; ``sweep`` replays them alone.
    for label, reading in readings.items():
        for what, values in reading.items():
            digits = 1 if what == "intercept us" else 2 if what.startswith("tracemalloc") else 4
            print(label, what, json.dumps({k: round(float(v), digits) for k, v in values.items()}))
    if len(readings) == 2:
        (a, ra), (b, rb) = readings.items()
        for what in ("min pass", "sum of call minima"):
            ratios = {k: round(float(v / rb[what][k]), 3) for k, v in ra[what].items() if rb[what].get(k)}
            print(f"{a} / {b}", what, json.dumps(ratios))


def compare(a_path: str, b_path: str) -> int:
    a, b = np.load(a_path), np.load(b_path)
    differ = sorted(set(a.files) ^ set(b.files))
    for key in sorted(set(a.files) & set(b.files)):
        if a[key].dtype != b[key].dtype or not np.array_equal(a[key], b[key]):
            differ.append(key)
    print(f"{len(a.files)} outputs, {len(differ)} differ" + (f" (first: {differ[0]})" if differ else ""))
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("capture")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("--out", type=Path, required=True, help="where to write the pickle (use /root/scratch)")
    p = sub.add_parser("replay")
    p.add_argument("capture", type=Path)
    p.add_argument("checkouts", nargs="+")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--memory", action="store_true", help="also print each method's tracemalloc peak")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("_worker")
    p.add_argument("capture")
    p.add_argument("checkout")
    p.add_argument("save")
    p.add_argument("--memory", action="store_true")
    args = parser.parse_args(argv)
    if args.cmd == "capture":
        capture(args.workload, args.seed, args.out)
    elif args.cmd == "replay":
        replay(args.capture, args.checkouts, args.rounds, args.memory)
    elif args.cmd == "compare":
        return compare(args.a, args.b)
    else:
        _worker(args.capture, args.checkout, args.save, args.memory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
