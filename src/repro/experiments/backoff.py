"""Deterministic retry backoff for supervised work.

The worker pool (:mod:`repro.experiments.pool`) re-dispatches a failed
campaign chunk or beacon request after an exponential delay, and the inline
campaign path sleeps the same delay; both get it from the pool's
``retry_delay``, the only caller.  The schedule is a pure function of the
attempt number -- no jitter, no clock reads -- so retry timing is
reproducible and testable: ``base``, ``2*base``, ``4*base``, ... capped at
:data:`BACKOFF_CAP_S`.
"""

from __future__ import annotations

#: Default base of the retry backoff schedule (seconds).
DEFAULT_BACKOFF_BASE_S = 0.05
#: Backoff ceiling: no retry ever waits longer than this.
BACKOFF_CAP_S = 2.0


def backoff_delay(attempt: int, base_s: float = DEFAULT_BACKOFF_BASE_S) -> float:
    """Deterministic exponential backoff before dispatch ``attempt`` (>= 1).

    ``min(BACKOFF_CAP_S, base_s * 2**(attempt-1))``; attempts below 1 are
    clamped to the first step so callers may pass a raw retry counter.
    """
    return min(BACKOFF_CAP_S, base_s * (2 ** max(0, attempt - 1)))
