"""Typed exception hierarchy of the reproduction's runtime layers.

Until PR 7 every failure surfaced as a bare ``RuntimeError``/``ValueError``
(or a hung waiter).  A production-shaped service needs errors that callers
can *dispatch on*: the broker isolates a :class:`QueryTimeout` differently
from a :class:`ServerUnavailable` (the latter feeds the per-server circuit
breaker), and the asynchronous service lane must fail pending tickets with
something a client can distinguish from a join bug.

Design rules:

* Everything raised by the fault/retry/service machinery derives from
  :class:`ReproError`, so ``except ReproError`` catches exactly the
  runtime-layer failures and never a programming error.
* Where the seed code raised a stdlib type that callers may already catch,
  the typed replacement *also* subclasses that stdlib type
  (:class:`QueryTimeout` is a ``TimeoutError``, :class:`ServiceClosed` is a
  ``RuntimeError``), so the migration cannot break existing ``except``
  clauses.
* Faults carry their provenance (server name, per-channel exchange index,
  fault kind) and a ``recoverable`` flag: the retry layer keeps retrying
  recoverable faults until its policy gives up; unrecoverable ones (a
  mid-query disconnect, an open circuit breaker) abort immediately.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

__all__ = [
    "ChannelFault",
    "InvalidInput",
    "QueryTimeout",
    "ReproError",
    "RetryExhausted",
    "RoundRetry",
    "ServerUnavailable",
    "ServiceClosed",
    "require_count",
    "require_finite",
]


class ReproError(Exception):
    """Base class of all runtime-layer errors raised by this package."""


class InvalidInput(ReproError, ValueError):
    """Data or a query parameter from outside the package is unusable.

    Raised at the boundary -- when a dataset is built, when a join is
    specified -- for values the algorithms cannot terminate or answer on:
    non-finite coordinates, a non-finite or negative ``epsilon``, a join
    window with a non-finite bound.
    Subclasses ``ValueError``, which those sites raised for other bad
    input before, so existing ``except`` clauses keep working.
    """


def require_count(value, what: str, minimum: int = 1, unbounded: bool = False) -> None:
    """The one rule for a count: an integer >= ``minimum`` (or, if
    ``unbounded``, ``None`` for no bound), else :class:`InvalidInput`."""
    if value is None and unbounded:
        return
    if not (isinstance(value, numbers.Integral) and value >= minimum):
        bound = " (or None for unbounded)" if unbounded else ""
        raise InvalidInput(f"{what} must be >= {minimum} and integral{bound}, got {value!r}")


def require_finite(value, what: str, minimum: float = 0.0) -> None:
    """A finite real >= ``minimum``, else :class:`InvalidInput` (NaN included,
    which slips through a ``value < minimum`` check)."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value >= minimum):
        raise InvalidInput(f"{what} must be finite and >= {minimum:g}, got {value!r}")


class ChannelFault(ReproError):
    """A simulated wireless-link fault terminated an exchange.

    Raised by the fault-injected channel layer when an exchange cannot be
    completed: an unrecoverable mid-query disconnect, or a recoverable
    fault that outlived the retry policy (then wrapped by
    :class:`RetryExhausted` / :class:`ServerUnavailable`).

    Parameters
    ----------
    server:
        Name of the server whose link faulted (``"R"`` / ``"S"``).
    op_index:
        Per-channel exchange index at which the fault fired (the position
        in that channel's deterministic fault stream).
    kind:
        The fault kind (``"drop"``, ``"unavailable"``, ``"disconnect"``,
        ``"breaker"``).
    recoverable:
        False for faults that no amount of retrying can clear.
    """

    def __init__(
        self,
        message: str,
        *,
        server: Optional[str] = None,
        op_index: Optional[int] = None,
        kind: Optional[str] = None,
        recoverable: bool = True,
    ) -> None:
        super().__init__(message)
        self.server = server
        self.op_index = op_index
        self.kind = kind
        self.recoverable = recoverable


class ServerUnavailable(ChannelFault):
    """A server refused service: an unavailability window outlived the
    retry budget, or the broker's circuit breaker for that server is open.

    This is the one fault class the broker's per-server circuit breaker
    counts; drop-induced :class:`RetryExhausted` failures do not trip it.
    """


class QueryTimeout(ReproError, TimeoutError):
    """A per-query deadline budget (or a client-side wait) expired.

    Subclasses ``TimeoutError`` so callers that guarded
    ``QueryService.result(timeout=...)`` with the stdlib type keep working.
    """


class RetryExhausted(ReproError):
    """The retry policy ran out of attempts on a recoverable fault.

    ``last_fault`` is the :class:`ChannelFault`-shaped description of the
    final failed attempt (may be ``None`` when synthesised).
    """

    def __init__(self, message: str, last_fault: Optional[ChannelFault] = None) -> None:
        super().__init__(message)
        self.last_fault = last_fault


class ServiceClosed(ReproError, RuntimeError):
    """The query service is shut down (or shutting down).

    Raised on ``submit()`` after ``close()``, and used to fail every
    pending ticket when the service stops before executing it -- a waiter
    blocked in ``result()`` receives this instead of hanging forever.
    """


class RoundRetry(ReproError):
    """Control-flow signal: re-yield the current COUNT round.

    A driver of the frontier engine's cooperative generators throws this
    *into* the generator when a coalesced exchange failed transiently and
    will be retried: the generator re-yields the identical round instead of
    unwinding, so one failed rendezvous does not destroy the query's
    execution state.  Never escapes to user code.
    """
