"""The multi-tenant query service.

A serving layer over the join substrate: :class:`JoinQuery` describes one
client request, and :meth:`QueryBroker.run_batch` (the broker's one entry
point) plans it (the cheapest predicted algorithm, a pure function of the
query, or an explicit override), admits it in deterministic waves,
deduplicates it through the :class:`~repro.service.cache.ResultCache`
(LRU, lock-guarded, results deep-frozen at insertion) and executes it
cooperatively on the shared frontier engine -- coalescing the COUNT
exchanges of all in-flight queries per backing server while keeping every
query's metering ledger isolated and bit-identical to a standalone run.
``run_batch`` is also the package's only way to serve queries: a caller
with a stream of arrivals cuts it into batches itself, and no thread is
started anywhere in the package.
"""

from repro.service.broker import BrokerStats, QueryBroker
from repro.service.cache import (
    ResultCache,
    dataset_token,
    freeze_result,
    query_key,
)
from repro.service.query import JoinQuery, QueryOutcome

__all__ = [
    "BrokerStats",
    "JoinQuery",
    "QueryBroker",
    "QueryOutcome",
    "ResultCache",
    "dataset_token",
    "freeze_result",
    "query_key",
]
