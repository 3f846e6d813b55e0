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
  produced here, not inside the algorithms.  Its index relay (R-tree level
  MBRs, uploaded windows and objects) serves the SemiJoin comparator alone:
  the paper assumes the servers publish it for that algorithm only.
* :class:`~repro.server.sharded.ShardedSpatialServer` /
  :class:`~repro.server.remote.ShardedRemoteServer` -- the sharded data
  plane: one logical dataset partitioned across a fleet of shard servers,
  scattered to and merged from over per-shard metered channels.
"""

from __future__ import annotations

from repro.server.server import SpatialServer
from repro.server.sharded import ShardedSpatialServer
from repro.server.remote import RemoteServer, ServerPair, ShardedRemoteServer

__all__ = [
    "SpatialServer",
    "ShardedSpatialServer",
    "RemoteServer",
    "ShardedRemoteServer",
    "ServerPair",
]
