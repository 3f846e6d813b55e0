#!/usr/bin/env python
"""The paper's drawn examples: the layouts of Figures 2 and 4.

Each layout exposes one weakness of a cost heuristic:

* Figure 2(a) -- a large R and a small S in disjoint regions: one
  partitioning step prunes everything, and the exact answer is empty.
* Figure 2(b) -- a larger device buffer makes MobiJoin stop refining and
  download whole regions, so more memory costs more bytes.
* Figure 4 -- identical cluster layouts: UpJoin keeps asking COUNT queries
  that cannot prune, SrJoin notices the similarity and stops.

Prints transferred bytes, COUNT queries and result pairs per case and
algorithm, then checks the three claims.

Run with:  python examples/adversarial_layouts.py
"""

from __future__ import annotations

from repro.experiments import (
    figure2a_layout,
    figure2b_layout,
    figure4_layout,
    format_table,
    run_adversarial_case,
)


def main() -> None:
    fig2b = figure2b_layout(points_per_cluster=250)
    results = {
        "fig2a": run_adversarial_case(
            figure2a_layout(), algorithms=("mobijoin", "upjoin", "srjoin"), buffer_size=800
        ),
        "fig2b buffer 450": run_adversarial_case(fig2b, ("mobijoin",), buffer_size=450),
        "fig2b buffer 1100": run_adversarial_case(fig2b, ("mobijoin",), buffer_size=1100),
        "fig4": run_adversarial_case(
            figure4_layout(), algorithms=("upjoin", "srjoin"), buffer_size=1500
        ),
    }
    rows = [
        [case, name, res.total_bytes, res.operator_counts["count_queries"], res.num_pairs]
        for case, algorithms in results.items()
        for name, res in algorithms.items()
    ]
    print(format_table(["case", "algorithm", "bytes", "counts", "pairs"], rows,
                       title="adversarial layouts (Figures 2 and 4)"))

    small = results["fig2b buffer 450"]["mobijoin"]
    large = results["fig2b buffer 1100"]["mobijoin"]
    up, sr = results["fig4"]["upjoin"], results["fig4"]["srjoin"]
    # Figure 2(a): every algorithm returns the (empty) exact answer.
    assert all(res.num_pairs == 0 for res in results["fig2a"].values())
    # Figure 2(b): a larger buffer does not reduce MobiJoin's cost.
    assert large.total_bytes >= small.total_bytes and large.pairs == small.pairs
    # Figure 4: SrJoin issues no more aggregate queries than UpJoin.
    assert sr.operator_counts["count_queries"] <= up.operator_counts["count_queries"]
    assert sr.pairs == up.pairs
    print("\nall three claims hold")


if __name__ == "__main__":
    main()
