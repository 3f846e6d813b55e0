"""The end-to-end benchmark: one command, every metric, every answer checked.

Three uses::

    python3 benchmarks/e2e/run.py --seed 0
        every workload, end-to-end metrics and the per-layer trace, a
        table on stdout and the record in benchmarks/e2e/out/
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last stdout line is the JSON object BENCHMARK.json's
        contract asks for (end-to-end metrics at --trace 0, per-layer at 1)
    python3 benchmarks/e2e/run.py --compare A.json B.json
        two records side by side, each metric judged against its bound

Each (workload, round) runs in a fresh child process, strictly one at a
time; this process only schedules them, runs the correctness oracle and
does the arithmetic.  ``--trace 0`` runs three untraced rounds of a third
of ``--seconds`` each.  ``--trace 1`` runs one untraced round (the baseline
of the trace overhead, followed by the plain-vs-``repro.obs`` op pairs) and
one round with the layer tracer installed, half of ``--seconds`` each.
Without ``--trace`` both passes run, and the last of the three untraced
rounds serves as that baseline.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
# The benchmark builds the program from source: the package under src/ of
# the checkout this file sits in, wherever that checkout is.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

UNTRACED_ROUNDS = 3
#: Plain-vs-hooked op pairs behind ``obs.enabled_overhead``.
OBS_PAIRS = 10
SMOKE_OBS_PAIRS = 2
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------- #
# child side: one round of one workload
# ---------------------------------------------------------------------- #


def _child(args: argparse.Namespace) -> int:
    from benchmarks.e2e import harness

    report = harness.run_round(
        harness.load_spec(args.workload, args.smoke),
        args.seed,
        args.seconds,
        _PROCESS_START,
        traced=bool(args.trace),
        obs_pairs=args.obs_pairs,
        trace_path=OUT_DIR / f"trace_{args.workload}.json" if args.trace else None,
    )
    print(json.dumps(report))
    return 0


def _spawn(workload: str, seed: int, seconds: float, smoke: bool,
           traced: bool = False, obs_pairs: int = 0) -> Dict:
    """Run one round in a fresh interpreter and return its report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(traced)), "--obs-pairs", str(obs_pairs),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


# ---------------------------------------------------------------------- #
# parent side: scheduling, oracle, metrics
# ---------------------------------------------------------------------- #


def measure(workloads: Sequence[str], seed: int, seconds: float, smoke: bool,
            end_to_end: bool, per_layer: bool) -> Dict[str, Dict]:
    """Run the rounds (interleaved across workloads), check every answer and
    reduce to ``{workload: {attempted, failed, errors, metrics}}``."""
    from benchmarks.e2e import harness, metrics

    # The untraced rounds: the end-to-end pass's, or else the one round the
    # traced round is compared with.  The last of them also runs the obs
    # pairs when the per-layer pass is on; they follow its timed loop and
    # its memory reading, so they change none of its numbers.
    if end_to_end:
        rounds = 1 if smoke else UNTRACED_ROUNDS
        lengths = [seconds / rounds] * rounds
    else:
        lengths = [seconds / 2]
    obs_pairs = (SMOKE_OBS_PAIRS if smoke else OBS_PAIRS) if per_layer else 0
    plain: Dict[str, List[Dict]] = {name: [] for name in workloads}
    traced: Dict[str, Dict] = {}
    for i, length in enumerate(lengths):
        pairs = obs_pairs if i == len(lengths) - 1 else 0
        for name in workloads:
            plain[name].append(_spawn(name, seed, length, smoke, obs_pairs=pairs))
    if per_layer:
        for name in workloads:
            traced[name] = _spawn(name, seed, seconds / 2, smoke, traced=True)

    results = {}
    for name in workloads:
        spec = harness.load_spec(name, smoke)
        reports = plain[name] + ([traced[name]] if per_layer else [])
        attempted, failed, errors = metrics.check_rounds(
            reports, harness.oracle_digests(spec, seed)
        )
        values: Dict[str, Dict] = {}
        if end_to_end:
            values.update(metrics.end_to_end(plain[name], attempted, failed))
        if per_layer:
            values.update(metrics.per_layer(plain[name][-1], traced[name]))
            if traced[name]["leaked"]:
                errors.append(f"wrappers left installed: {traced[name]['leaked']}")
                failed = max(failed, 1)
        results[name] = {
            "why": spec["why"],
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "untraced_ops": sum(len(report["ops"]) for report in plain[name]),
            "traced_ops": len(traced[name]["ops"]) if per_layer else 0,
            "metrics": values,
        }
    return results


def _print_table(results: Dict[str, Dict]) -> None:
    names = list(results)
    width = max(len(metric) for result in results.values() for metric in result["metrics"])
    print(f"{'metric':{width}}  {'unit':6}" + "".join(f"{name:>16}" for name in names))
    rows: Dict[str, Dict[str, Dict]] = {}
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            rows.setdefault(metric, {})[name] = entry
    for metric, by_workload in rows.items():
        unit = next(iter(by_workload.values()))["unit"]
        cells = "".join(
            f"{by_workload[name]['value']:>16.6g}" if name in by_workload else f"{'':>16}"
            for name in names
        )
        print(f"{metric:{width}}  {unit:6}{cells}")
    for label in ("untraced_ops", "traced_ops", "attempted", "failed"):
        print(f"{'N ' + label:{width}}  {'count':6}"
              + "".join(f"{results[name][label]:>16}" for name in names))
    for name, result in results.items():
        for error in result["errors"]:
            print(f"ERROR {name}: {error}")


def _compare(path_a: str, path_b: str) -> int:
    from benchmarks.e2e import metrics

    record_a = json.loads(Path(path_a).read_text())
    record_b = json.loads(Path(path_b).read_text())
    rows, ok = metrics.compare(record_a, record_b)
    header = ["workload", "metric", "A", "B", "ratio", "verdict"]
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="one round, a quarter of the ops per cycle")
    parser.add_argument("--out", help="where to write the record "
                                      "(default: benchmarks/e2e/out/record_seed<N>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--obs-pairs", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return _compare(*args.compare)
    if args.child:
        return _child(args)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from benchmarks.e2e import harness, metrics

    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(metrics.contract()["run_seconds"])
    workloads = [args.workload] if args.workload else harness.spec_names()
    for name in workloads:
        harness.load_spec(name)  # fail on a bad name or file before measuring
    results = measure(
        workloads, args.seed, args.seconds, args.smoke,
        end_to_end=args.trace in (None, 0), per_layer=args.trace in (None, 1),
    )
    failed = sum(result["failed"] for result in results.values())

    if args.workload and args.trace is not None:
        # The driver's form: one JSON object as the last line of stdout.
        result = results[args.workload]
        for error in result["errors"]:
            print(f"ERROR {args.workload}: {error}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in result["metrics"].items()
            },
        }))
    else:
        _print_table(results)
        record = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
                  "workloads": results}
        out = Path(args.out) if args.out else OUT_DIR / f"record_seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1))
        print(f"record written to {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
