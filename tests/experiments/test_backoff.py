"""The shared deterministic backoff schedule is pinned and single-sourced."""

from __future__ import annotations

import pytest

from repro.experiments import backoff as backoff_module
from repro.experiments import supervisor as supervisor_module
from repro.experiments.backoff import (
    BACKOFF_CAP_S,
    DEFAULT_BACKOFF_BASE_S,
    backoff_delay,
)


def test_default_sequence_is_pinned():
    # base, 2*base, 4*base, ... capped at BACKOFF_CAP_S.  This sequence is
    # relied on by the campaign supervisor and the beacon front-end alike;
    # changing it silently changes chaos-recovery timing everywhere.
    assert [backoff_delay(attempt) for attempt in range(1, 9)] == [
        0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0,
    ]


def test_custom_base_and_cap():
    assert backoff_delay(1, base_s=0.25) == 0.25
    assert backoff_delay(3, base_s=0.25) == 1.0
    assert backoff_delay(10, base_s=0.25) == BACKOFF_CAP_S
    assert backoff_delay(5, base_s=0.0) == 0.0


@pytest.mark.parametrize("attempt", [-3, 0, 1])
def test_attempts_below_one_clamp_to_first_step(attempt):
    assert backoff_delay(attempt) == DEFAULT_BACKOFF_BASE_S


def test_supervisor_and_service_share_one_formula():
    # The supervisor re-exports the shared helper (back-compat import path);
    # the worker pool under the campaign and the beacon is its only caller.
    # Identity, not equality: there must be exactly one implementation.
    assert supervisor_module.backoff_delay is backoff_module.backoff_delay
    from repro.experiments import pool

    assert pool.backoff_delay is backoff_module.backoff_delay
