"""Capture the index / kernel calls a workload really makes; replay them on any checkout.

Sizes a change to ``index/flat.py``, ``index/plane_sweep.py`` or
``index/hash_join.py`` in seconds and proves its outputs unchanged on the
calls the end-to-end workloads make (run from the repo root)::

    python3 benchmarks/replay_calls.py capture warm_session 41 --out /root/scratch/warm.pkl
    python3 benchmarks/replay_calls.py replay /root/scratch/warm.pkl /root/scratch/parent . --rounds 9
    python3 benchmarks/replay_calls.py compare /root/scratch/warm.parent.npz /root/scratch/warm.repo.npz

``capture`` runs one cycle of a ``benchmarks/e2e`` workload (the harness is
imported, never edited) with wrappers around the three ``FlatRTree`` batch
descents and the two in-memory join kernels, and pickles *version-agnostic*
arguments: plain arrays, the queried trees as their constructor arrays, the
predicate as ``(class name, probe radius)``.  ``replay`` rebuilds them in one
subprocess per checkout and round (``<checkout>/src`` first on ``sys.path``),
times every call, prints the per-method minimum over the rounds --
alternating the checkouts when given two -- and saves the first round's
outputs as ``<capture stem>.<checkout name>.npz``.  ``compare`` is
``array_equal`` + dtype, call by call.  Timings on a shared box wobble +-10%
even as a minimum: read ratios, over several alternations.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import subprocess
import sys
import time
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

    def join(items, predicate, grids=None, inner=hash_join.grid_hash_join_batch):
        batch = items if isinstance(items, hash_join.JoinBatch) else hash_join.JoinBatch.from_items(items)
        fields = tuple(np.array(f) for f in batch)
        calls.append(("join", None, (fields, predicate_of(predicate), dict(grids or {}))))
        return inner(items, predicate, grids)

    for name in DESCENTS:
        descent(name)
    # ``from x import f`` copies the reference: rebind every module that holds one.
    plane_sweep.plane_sweep_pair_arrays_segmented = sweep
    hash_join.plane_sweep_pair_arrays_segmented = sweep
    hash_join.grid_hash_join_batch = join
    hbsj.grid_hash_join_batch = join

    w = harness.make_workload(harness.load_spec(workload), seed)
    w.setup()
    w.warm_up()
    del calls[:]
    w.begin_cycle()
    for slot in range(w.cycle_len):
        w.run_op(slot)
    arrays = [None] * len(trees)
    for key, tree in trees.values():
        arrays[key] = {field: getattr(tree, field) for field in TREE_FIELDS}
    with open(out, "wb") as fh:
        pickle.dump({"workload": workload, "seed": seed, "trees": arrays, "calls": calls}, fh, protocol=4)
    by_method = {}
    for name, _, args in calls:
        n, rows = by_method.get(name, (0, 0))
        by_method[name] = (n + 1, rows + (args[0].shape[0] if name in DESCENTS or name == "sweep" else 0))
    print(json.dumps({"out": str(out), "trees": len(arrays), "calls (n, rows)": by_method}))


def _worker(capture_path: str, checkout: str, save: str) -> None:
    """One timed pass over every captured call against ``checkout``'s package."""
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

    seconds, outputs = {}, {}
    gc.collect()
    for i, (name, key, args) in enumerate(cap["calls"]):
        if name in DESCENTS:
            call = getattr(trees[key], name)
        elif name == "sweep":
            call, args = plane_sweep_pair_arrays_segmented, (*args[:4], predicate(args[4]))
        else:
            call, args = grid_hash_join_batch, (JoinBatch(*args[0]), predicate(args[1]), args[2] or None)
        t0 = time.perf_counter()
        result = call(*args)
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0
        if save:
            parts = result if isinstance(result, tuple) else (result,)
            if name == "sweep":  # its pair order is an implementation detail
                order = np.lexsort((parts[1], parts[0]))
                parts = tuple(p[order] for p in parts)
            for k, part in enumerate(parts):
                outputs[f"{i:06d}.{name}.{k}"] = part
    if save:
        np.savez(save, **outputs)
    print(json.dumps(seconds))


def replay(capture_path: Path, checkouts, rounds: int) -> None:
    best = {}
    for rnd in range(rounds):
        # Alternate which checkout runs first.
        for checkout in checkouts if rnd % 2 == 0 else checkouts[::-1]:
            label = Path(checkout).resolve().name
            save = str(capture_path.with_suffix(f".{label}.npz")) if rnd == 0 else ""
            done = subprocess.run(
                [sys.executable, __file__, "_worker", str(capture_path), checkout, save],
                check=True, capture_output=True, text=True,
            )
            seconds = json.loads(done.stdout.strip().splitlines()[-1])
            mine = best.setdefault(label, {})
            for name, value in seconds.items():
                mine[name] = min(mine.get(name, value), value)
    # ``join`` contains the sweeps it makes; ``sweep`` replays them on their own.
    for label, mine in best.items():
        print(label, json.dumps({k: round(v, 4) for k, v in mine.items()}))
    if len(best) == 2:
        (a, ta), (b, tb) = best.items()
        print(f"{a} / {b}", json.dumps({k: round(ta[k] / tb[k], 3) for k in ta if tb.get(k)}))


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
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("_worker")
    p.add_argument("capture")
    p.add_argument("checkout")
    p.add_argument("save")
    args = parser.parse_args(argv)
    if args.cmd == "capture":
        capture(args.workload, args.seed, args.out)
    elif args.cmd == "replay":
        replay(args.capture, args.checkouts, args.rounds)
    elif args.cmd == "compare":
        return compare(args.a, args.b)
    else:
        _worker(args.capture, args.checkout, args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
