"""Merge every per-PR speedup record into one machine-readable trajectory.

Each perf-lane benchmark (``pytest -m perf benchmarks/``) writes its own
record under ``benchmarks/results/`` -- ``<name>_speedup.json``,
``<name>_overhead.json``, ``<name>_scaling.json``, or any future family.  This script folds **every** ``results/*.json`` file
(except the summary itself) into ``benchmarks/results/summary.json`` so the
performance trajectory of the repository stays readable in one place::

    PYTHONPATH=src python benchmarks/collect.py

Earlier versions matched only the record-name suffixes known at the time,
so a new record family was silently excluded from the summary *and* from
the regression gate -- the worst possible failure mode for a gate.  The
glob is now suffix-agnostic.

The summary maps each record name (the file stem) to its content plus the
headline speedup(s) pulled to the top level for quick scanning; records
that nest per-algorithm numbers (``frontier_speedup``) contribute one
headline entry per algorithm.

``--check`` additionally runs the regression gate: every recorded speedup
that states its own ``min_speedup`` threshold (top-level or per
algorithm/case) must still meet it, and every record must gate *something*
-- a record with no ``min_speedup`` floor anywhere fails the check rather
than passing silently.  Violations exit non-zero with one line per
offender.  The same gate runs as a ``perf``-marked test
(``benchmarks/bench_collect.py``), so ``pytest -m perf benchmarks/`` fails
loudly when a recorded speedup drops below its stated floor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

RESULTS_DIR = Path(__file__).parent / "results"
SUMMARY_PATH = RESULTS_DIR / "summary.json"


def _headline_speedups(name: str, record: Dict) -> Dict[str, float]:
    """Flatten a record's speedup figure(s) to ``label -> x`` pairs."""
    out: Dict[str, float] = {}
    if isinstance(record.get("speedup"), (int, float)):
        out[name] = float(record["speedup"])
    for group_key in ("algorithms", "cases"):
        group = record.get(group_key)
        if isinstance(group, dict):
            for label, numbers in group.items():
                if isinstance(numbers, dict) and isinstance(
                    numbers.get("speedup"), (int, float)
                ):
                    out[f"{name}:{label}"] = float(numbers["speedup"])
    return out


def collect(results_dir: Path = RESULTS_DIR) -> Dict:
    """Read every benchmark record and assemble the summary.

    Every ``*.json`` in the results directory is a record except the
    summary itself -- new record families are picked up (and gated)
    without touching this script.
    """
    records: Dict[str, Dict] = {}
    headline: Dict[str, float] = {}
    paths = [
        path
        for path in results_dir.glob("*.json")
        if path.name != SUMMARY_PATH.name
    ]
    for path in sorted(paths):
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            # A partial write (interrupted benchmark) must not erase the
            # rest of the trajectory; skip it loudly.
            print(f"warning: skipping unreadable record {path}: {exc}")
            continue
        name = path.stem
        records[name] = record
        headline.update(_headline_speedups(name, record))
    return {
        "records": records,
        "speedups": dict(sorted(headline.items())),
    }


def _gated_speedups(name: str, record: Dict) -> List[Tuple[str, float, float]]:
    """All ``(label, speedup, min_speedup)`` triples a record states."""
    out: List[Tuple[str, float, float]] = []
    if isinstance(record.get("speedup"), (int, float)) and isinstance(
        record.get("min_speedup"), (int, float)
    ):
        out.append((name, float(record["speedup"]), float(record["min_speedup"])))
    for group_key in ("algorithms", "cases"):
        group = record.get(group_key)
        if isinstance(group, dict):
            for label, numbers in group.items():
                if (
                    isinstance(numbers, dict)
                    and isinstance(numbers.get("speedup"), (int, float))
                    and isinstance(numbers.get("min_speedup"), (int, float))
                ):
                    out.append(
                        (
                            f"{name}:{label}",
                            float(numbers["speedup"]),
                            float(numbers["min_speedup"]),
                        )
                    )
    return out


def check(summary: Dict) -> List[str]:
    """The regression gate: recorded speedups below their stated floor.

    Returns one human-readable line per violation (empty = all good).
    A record with no ``min_speedup`` floor anywhere (top-level or per
    algorithm/case) is itself a violation: an ungated record would sail
    through every future regression silently.
    """
    failures: List[str] = []
    for name, record in summary["records"].items():
        gated = _gated_speedups(name, record)
        if not gated:
            failures.append(
                f"{name}: record states no min_speedup floor anywhere; "
                "ungated records cannot participate in the regression gate"
            )
            continue
        for label, speedup, floor in gated:
            if speedup < floor:
                failures.append(
                    f"{label}: recorded speedup {speedup}x is below its "
                    f"stated threshold {floor}x"
                )
    return failures


def main(argv: List[str]) -> int:
    if not RESULTS_DIR.is_dir():
        raise SystemExit(f"no results directory at {RESULTS_DIR}")
    summary = collect()
    SUMMARY_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    names = ", ".join(sorted(summary["records"])) or "none"
    print(f"wrote {SUMMARY_PATH} ({len(summary['records'])} records: {names})")
    for label, x in summary["speedups"].items():
        print(f"  {label}: {x}x")
    if "--check" in argv:
        failures = check(summary)
        if failures:
            print("regression gate FAILED:")
            for line in failures:
                print(f"  {line}")
            return 1
        print("regression gate ok (all stated thresholds met)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
