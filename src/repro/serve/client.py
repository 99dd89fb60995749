"""Bounded retry-with-backoff client over the serve front-end.

``overloaded`` (shed at admission) and ``worker-lost`` (restart budget
exhausted mid-request) are *transient*: the backlog drains, the monitor
respawns workers, and an identical resubmission usually succeeds.
:func:`query_with_retry` wraps one query in that loop — exponential
backoff, a hard attempt cap, every retry counted in the closed
``repro_serve_retries_total{outcome}`` enum — so load generators and
the chaos harness share one retry policy instead of each inventing a
slightly-wrong one.

Non-transient outcomes (``ok``, ``stale``, ``timeout``, ``error``,
``shutdown``) return immediately: retrying a deadline miss just
doubles the deadline miss, and retrying into a closing front-end spins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..telemetry.schema import SERVE_RETRIES
from .frontend import ServeFrontend, ServeResult
from .queries import Query

#: The transient outcomes worth retrying: the retry counter's enum.
RETRYABLE_OUTCOMES = SERVE_RETRIES.legal("outcome")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a hard attempt cap."""

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    multiplier: float = 2.0
    max_backoff_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_seconds < 0 or self.multiplier < 1:
            raise ValueError("backoff must be non-negative and "
                             "non-shrinking")

    def delay(self, retry_index: int) -> float:
        """Sleep before retry ``retry_index`` (0-based)."""
        return min(self.backoff_seconds * self.multiplier ** retry_index,
                   self.max_backoff_seconds)


DEFAULT_RETRY_POLICY = RetryPolicy()


def query_with_retry(frontend: ServeFrontend, query: Query,
                     timeout: Optional[float] = None,
                     max_staleness: Optional[int] = None,
                     policy: RetryPolicy = DEFAULT_RETRY_POLICY,
                     ) -> ServeResult:
    """Submit ``query``, retrying transient rejections with backoff.

    Returns the first non-transient :class:`ServeResult`, or the last
    transient one once the attempt budget is spent.
    """
    result: ServeResult = frontend.submit(
        query, timeout=timeout, max_staleness=max_staleness).result()
    for retry_index in range(policy.max_attempts - 1):
        if result.outcome not in RETRYABLE_OUTCOMES:
            return result
        SERVE_RETRIES.inc(outcome=result.outcome)
        time.sleep(policy.delay(retry_index))
        result = frontend.submit(
            query, timeout=timeout,
            max_staleness=max_staleness).result()
    return result


def run_queries_with_retry(frontend: ServeFrontend,
                           queries: Sequence[Query],
                           timeout: Optional[float] = None,
                           max_staleness: Optional[int] = None,
                           policy: RetryPolicy = DEFAULT_RETRY_POLICY,
                           ) -> list:
    """Serial retry-wrapped client (closed-loop; the chaos harness's
    query thread uses this so storms do not silently drop answers)."""
    return [query_with_retry(frontend, q, timeout=timeout,
                             max_staleness=max_staleness, policy=policy)
            for q in queries]
