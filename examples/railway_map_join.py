#!/usr/bin/env python
"""Joining a country-scale map with a small ad-hoc dataset (Section 5.2).

Server R publishes a railway map (tens of thousands of tiny segment MBRs,
standing in for the paper's German railway dataset); server S publishes a
small set of points of interest.  The query -- "which points of interest lie
within walking distance of a railway line?" -- is an epsilon-distance join
where the two dataset cardinalities differ by almost two orders of
magnitude, the regime where MobiJoin's heuristic breaks down.

The example reproduces the Figure 8(a) comparison on a reduced-size map and
also demonstrates the bucket-query optimisation and the indexed SemiJoin
comparator.

Run with:  python examples/railway_map_join.py
"""

from __future__ import annotations

from repro.api import AdHocJoinSession
from repro.datasets import clustered, generate_railway_like


def main() -> None:
    railway = generate_railway_like(n_segments=8000, seed=3, name="railway-map")
    pois = clustered(n=1000, clusters=4, seed=17, name="points-of-interest")
    print(f"server R: {len(railway)} railway segment MBRs")
    print(f"server S: {len(pois)} points of interest\n")

    session = AdHocJoinSession(railway, pois, buffer_size=800)

    print("bucket-query algorithms (Figure 8a setting):")
    for algorithm in ("mobijoin", "upjoin", "srjoin"):
        result = session.run(algorithm=algorithm, epsilon=0.004, bucket_queries=True)
        print(
            f"  {algorithm:<9s}: {result.total_bytes:8d} bytes, "
            f"{result.num_pairs:5d} (segment, POI) pairs, "
            f"buffer peak {result.buffer_high_water_mark}"
        )

    print("\nindexed comparator (Figure 8b setting):")
    semi = session.run(algorithm="semijoin", epsilon=0.004)
    print(f"  semijoin : {semi.total_bytes:8d} bytes, {semi.num_pairs:5d} pairs")

    print("\nper-object vs bucket probing for UpJoin:")
    per_object = session.run(algorithm="upjoin", epsilon=0.004, bucket_queries=False)
    bucket = session.run(algorithm="upjoin", epsilon=0.004, bucket_queries=True)
    saved = per_object.total_bytes - bucket.total_bytes
    print(f"  per-object: {per_object.total_bytes} bytes")
    print(f"  bucket    : {bucket.total_bytes} bytes  (saves {saved} bytes of TCP/IP headers)")

    answers = sorted({poi for _, poi in bucket.pairs})
    print(f"\n{len(answers)} points of interest lie within walking distance of a railway line")


if __name__ == "__main__":
    main()
