"""Non-cooperative spatial servers.

A server publishes one spatial dataset and answers only the primitive
queries of Section 3 of the paper (WINDOW, COUNT, epsilon-RANGE, plus the
bucket range variant and a scalar aggregate for average object-MBR area).
Servers never talk to each other and never reveal their internal indexes.

Two layers:

* :class:`~repro.server.server.SpatialServer` -- the server proper,
  answering queries from its aggregate R-tree;
* :class:`~repro.server.remote.RemoteServer` -- the client-side proxy that
  the mobile device holds.  Every call is metered through a
  :class:`~repro.network.channel.Channel`, so the measured byte totals are
  produced here, not inside the algorithms.
* :class:`~repro.server.remote.IndexedRemoteServer` -- the privileged proxy
  used only by the SemiJoin comparator, exposing R-tree level MBRs (the
  paper assumes the servers publish them for that algorithm only).
* :class:`~repro.server.sharded.ShardedSpatialServer` /
  :class:`~repro.server.remote.ShardedRemoteServer` -- the sharded data
  plane: one logical dataset partitioned across a fleet of shard servers,
  scattered to and merged from over per-shard metered channels.
"""

from __future__ import annotations

from repro.server.server import SpatialServer
from repro.server.sharded import FleetStats, ShardedSpatialServer
from repro.server.remote import (
    IndexedRemoteServer,
    RemoteServer,
    ServerPair,
    ShardedRemoteServer,
)

__all__ = [
    "SpatialServer",
    "ShardedSpatialServer",
    "FleetStats",
    "RemoteServer",
    "IndexedRemoteServer",
    "ShardedRemoteServer",
    "ServerPair",
]
