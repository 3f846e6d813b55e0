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
:class:`~repro.service.executor.QueryService` adds the asynchronous
continuous-admission front-end (``submit``/``poll``/``result`` or
callbacks) that turns the broker into a sustained-throughput server under
open-loop load.
"""

from repro.service.broker import BrokerStats, QueryBroker
from repro.service.cache import (
    ResultCache,
    dataset_token,
    freeze_result,
    query_key,
)
from repro.service.executor import QueryService
from repro.service.query import JoinQuery, QueryOutcome

__all__ = [
    "BrokerStats",
    "JoinQuery",
    "QueryBroker",
    "QueryOutcome",
    "QueryService",
    "ResultCache",
    "dataset_token",
    "freeze_result",
    "query_key",
]
