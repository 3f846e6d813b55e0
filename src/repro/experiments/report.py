"""Plain-text rendering of experiment results.

``python -m repro.experiments.run`` prints these tables as the record of
every reproduced figure (series per row, cluster counts per column, mean
transferred bytes in the cells), mirroring the layout of the paper's plots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.harness import ExperimentResult

__all__ = ["format_table", "render_experiment", "render_shape_checks"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a simple fixed-width text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_experiment(result: ExperimentResult, show_pairs: bool = False) -> str:
    """Render one experiment as a bytes table (plus an optional pairs table)."""
    cfg = result.config
    headers = ["clusters"] + [str(x) for x in cfg.x_values]
    rows: List[List[object]] = []
    for label, series in result.series.items():
        rows.append([label] + [round(b) for b in series.mean_bytes])
    out = format_table(
        headers,
        rows,
        title=f"{cfg.name}: {cfg.description}\n(total transferred bytes, mean over {len(cfg.seeds)} seeds)",
    )
    if show_pairs:
        pair_rows: List[List[object]] = []
        for label, series in result.series.items():
            pair_rows.append([label] + [round(p, 1) for p in series.mean_pairs])
        out += "\n\n" + format_table(
            headers, pair_rows, title="result pairs (must agree across series)"
        )
    return out


def render_shape_checks(checks: Dict[str, bool]) -> str:
    """Render the qualitative shape assertions of a figure reproduction."""
    lines = ["shape checks:"]
    for name, ok in checks.items():
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)
