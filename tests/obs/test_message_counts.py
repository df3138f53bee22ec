"""The trace is the one message counter, traced and trace-free alike."""

from __future__ import annotations

import pytest

from repro.core import api
from repro.net.message import Message
from repro.net.queues import FanoutEntry
from repro.net.tracing import Trace

#: The core keys of ``message_stats``: all a trace-free run reports.
CORE_KEYS = {
    "messages_sent",
    "messages_delivered",
    "messages_dropped",
    "shun_events",
    "sent_by_root",
    "sent_by_kind",
    "dropped_by_reason",
}


@pytest.mark.parametrize("enabled", [True, False], ids=["traced", "trace_free"])
def test_counts_and_summary(enabled):
    trace = Trace(enabled=enabled)
    row = FanoutEntry(1, ("svss",), "ROW", None, list(range(7)), 0, None, "svss")
    trace.on_fanout(0, row, 7)
    trace.on_fanout(0, FanoutEntry(2, ("svss",), "READY", ("READY",), None, 7, None, "svss"), 7)
    trace.on_fanout(0, Message(3, 0, ("svss",), ("ROW", 5), seq=14), 1)
    trace.on_drop(1, row, 2, "shunned")
    trace.on_drop(2, row, 3, "shunned")
    trace.on_shun(2, 0, 1, ("svss",))

    summary = trace.summary()
    assert summary == {
        "messages_sent": 15,
        "messages_delivered": 0,
        "messages_dropped": 2,
        "completions": 0,
        "shun_events": 1,
        "sent_by_root": {"svss": 15},
        "sent_by_kind": {"ROW": 8, "READY": 7},
        "dropped_by_reason": {"shunned": 2},
        "events_dropped": 0,
    }


def test_fresh_trace_is_zero():
    summary = Trace(enabled=False).summary()
    assert summary["messages_sent"] == 0
    assert summary["messages_dropped"] == 0
    assert summary["sent_by_kind"] == {}


def test_unmetered_trace_free_run_counts_nothing():
    result = api.run_weak_coin(4, seed=0, tracing=False, metering=False)
    assert result.message_stats is None
    trace = result.trace
    assert trace.messages_sent == trace.messages_delivered == 0
    assert trace.messages_dropped == trace.total_shun_events() == 0
    # metering only applies to a trace-free run: a traced run always counts.
    traced = api.run_weak_coin(4, seed=0, metering=False)
    assert traced.message_stats == traced.trace.summary()


def test_message_stats_shape_matches_mode():
    traced = api.run_weak_coin(4, seed=0)
    assert set(traced.message_stats) == CORE_KEYS | {"completions", "events_dropped"}
    assert traced.message_stats["completions"] >= 4
    metered = api.run_weak_coin(4, seed=0, tracing=False)
    assert set(metered.message_stats) == CORE_KEYS
    assert metered.message_stats["messages_delivered"] == metered.steps
    trace = metered.trace
    assert metered.message_stats["messages_sent"] == trace.messages_sent > 0
    assert metered.message_stats["messages_delivered"] == trace.messages_delivered
