"""Bounded retry-with-backoff client over the serve front-end.

``overloaded`` (shed at admission) and ``worker-lost`` (restart budget
exhausted mid-request) are *transient*: the backlog drains, the monitor
respawns workers, and an identical resubmission usually succeeds.
:func:`query_with_retry` wraps one query in that loop — exponential
backoff, a hard attempt cap, every retry counted in the closed
``repro_serve_retries_total{outcome}`` enum.  The chaos harness's
query thread uses it, so storms do not silently drop answers; the
load generator does not retry.

Non-transient outcomes (``ok``, ``stale``, ``timeout``, ``error``,
``shutdown``) return immediately: retrying a deadline miss just
doubles the deadline miss, and retrying into a closing front-end spins.
"""

from __future__ import annotations

import time
from typing import Optional

from ..telemetry.schema import SERVE_RETRIES
from .frontend import ServeFrontend, ServeResult
from .queries import Query

#: The transient outcomes worth retrying: the retry counter's enum.
RETRYABLE_OUTCOMES = SERVE_RETRIES.legal("outcome")

#: Submissions per query, the first included.
MAX_ATTEMPTS = 4
#: Sleep before the first retry; it doubles per retry up to the cap.
BACKOFF_SECONDS = 0.05
MAX_BACKOFF_SECONDS = 1.0


def query_with_retry(frontend: ServeFrontend, query: Query,
                     timeout: Optional[float] = None,
                     max_staleness: Optional[int] = None,
                     ) -> ServeResult:
    """Submit ``query``, retrying transient rejections with backoff.

    Returns the first non-transient :class:`ServeResult`, or the last
    transient one once :data:`MAX_ATTEMPTS` are spent.
    """
    result: ServeResult = frontend.submit(
        query, timeout=timeout, max_staleness=max_staleness).result()
    for retry_index in range(MAX_ATTEMPTS - 1):
        if result.outcome not in RETRYABLE_OUTCOMES:
            return result
        SERVE_RETRIES.inc(outcome=result.outcome)
        time.sleep(min(BACKOFF_SECONDS * 2 ** retry_index,
                       MAX_BACKOFF_SECONDS))
        result = frontend.submit(
            query, timeout=timeout,
            max_staleness=max_staleness).result()
    return result
