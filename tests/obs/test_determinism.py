"""Observability must never change behaviour.

The fingerprints in ``tests/golden_trials.json`` pin whole executions --
``[steps, sorted honest outputs, messages sent, shun events]`` per seed.
Every observability configuration (tracing on, metered trace-free, metering
disabled, streaming sinks attached, metrics registry active, bounded event
ring) must reproduce those fingerprints byte-for-byte: the instruments are
observers, not participants.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.adversary import attacks
from repro.core import api
from repro.core.config import ProtocolParams
from repro.crypto import kernels
from repro.net.runtime import Simulation
from repro.obs.sinks import JsonlSink, RingBufferSink
from repro.obs.timeline import TimelineBuilder
from repro.protocols.weak_coin import WeakCommonCoin
from repro.scenarios import run_scenario

GOLDEN = json.loads((Path(__file__).parents[1] / "golden_trials.json").read_text())

#: (golden key, runner kwargs) for the weak-coin cells used below.  n=32 uses
#: the million-scale prime preset (the batched crypto path), matching the
#: golden capture.
CELLS = [
    ("weakcoin_n16_s0", dict(n=16, seed=0)),
    ("weakcoin_n16_s1", dict(n=16, seed=1)),
    ("weakcoin_n32_s0", dict(n=32, seed=0, prime=1_000_003)),
    ("weakcoin_n32_s1", dict(n=32, seed=1, prime=1_000_003)),
]

#: Observability configurations layered on top of each cell.  ``sinks`` is a
#: factory so each run gets fresh sink instances.
CONFIGS = {
    "traced": dict(tracing=True),
    "metered": dict(tracing=False),
    "unmetered": dict(tracing=False, metering=False),
    "metrics": dict(tracing=True, metrics=True),
    "ring_sink": dict(tracing=True, sinks=lambda tmp: [RingBufferSink(512)]),
    # Smaller than one pump of the trace's record log: trims on every pump.
    "ring_sink_64": dict(tracing=True, sinks=lambda tmp: [RingBufferSink(64)]),
    "jsonl_sink": dict(
        tracing=True, sinks=lambda tmp: [JsonlSink(tmp / "trace.jsonl")]
    ),
    "timeline_sink": dict(tracing=True, sinks=lambda tmp: [TimelineBuilder()]),
}


def _run(cell_kwargs, config, tmp_path):
    kwargs = dict(cell_kwargs)
    for key, value in config.items():
        kwargs[key] = value(tmp_path) if key == "sinks" else value
    return api.run_weak_coin(**kwargs)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("key,cell", CELLS, ids=[key for key, _ in CELLS])
def test_golden_fingerprint_is_config_independent(key, cell, config_name, tmp_path):
    golden_steps, golden_outputs, golden_sent, golden_shuns = GOLDEN[key]
    result = _run(cell, CONFIGS[config_name], tmp_path)

    assert result.steps == golden_steps, (key, config_name)
    assert [[p, v] for p, v in sorted(result.outputs.items())] == golden_outputs

    stats = result.message_stats
    if config_name == "unmetered":
        # Trace-free and unmetered: message statistics are deliberately absent.
        assert stats is None
        return
    # Traced and trace-free counts must agree with the golden eager-trace counts.
    assert stats["messages_sent"] == golden_sent, (key, config_name)
    assert stats["shun_events"] == golden_shuns, (key, config_name)


#: The ``message_stats`` keys of a trace-free run.
CORE_KEYS = (
    "messages_sent",
    "messages_delivered",
    "messages_dropped",
    "shun_events",
    "sent_by_root",
    "sent_by_kind",
    "dropped_by_reason",
)

#: Scenarios whose traffic holds the survivors entries of an outgoing
#: mutator, mapped to whether (at n=7, seed 0) it also drops a shunned
#: sender's messages.
COUNT_SCENARIOS = {
    "tamper-on-share": False,
    "rushing-coalition": True,
    "equivocate-on-share": False,
}


def _assert_core_counts_match(traced, metered):
    assert set(metered) == set(CORE_KEYS)
    for field in CORE_KEYS:
        assert metered[field] == traced[field], field


@pytest.mark.parametrize("key,cell", CELLS[:2], ids=[key for key, _ in CELLS[:2]])
def test_meter_summary_matches_trace_summary(key, cell):
    """A trace-free run counts what the traced run counts, key for key."""
    traced = api.run_weak_coin(**cell).trace.summary()
    metered = api.run_weak_coin(**cell, tracing=False).message_stats
    _assert_core_counts_match(traced, metered)


@pytest.mark.parametrize("scenario", sorted(COUNT_SCENARIOS))
def test_meter_summary_matches_trace_summary_under_attack(scenario):
    """Drops, shuns and mutated fan-outs count the same traced and trace-free."""
    traced = run_scenario(scenario, n=7, seed=0)
    metered = run_scenario(scenario, n=7, seed=0, tracing=False)
    assert metered.steps == traced.steps
    _assert_core_counts_match(traced.message_stats, metered.message_stats)
    trace = metered.trace
    assert trace.messages_sent == metered.message_stats["messages_sent"]
    assert trace.messages_delivered == metered.steps
    assert trace.messages_dropped == metered.message_stats["messages_dropped"]
    assert trace.total_shun_events() == metered.message_stats["shun_events"]
    if COUNT_SCENARIOS[scenario]:
        assert trace.messages_dropped > 0 and trace.total_shun_events() > 0


@pytest.mark.parametrize("seed", range(2))
def test_meter_counts_drops_under_shunning(seed):
    """A bad-share dealer gets shunned; the meter must count the resulting
    dropped deliveries exactly as the trace does."""
    corruptions = {2: attacks.BadShareBehavior.factory()}
    traced = api.run_weak_coin(8, seed=seed, corruptions=corruptions)
    metered = api.run_weak_coin(
        8, seed=seed, corruptions=corruptions, tracing=False
    )
    assert metered.steps == traced.steps
    assert metered.outputs == traced.outputs
    t_summary = traced.trace.summary()
    m_summary = metered.message_stats
    assert t_summary["messages_dropped"] > 0  # the scenario must exercise drops
    assert m_summary["messages_dropped"] == t_summary["messages_dropped"]
    assert m_summary["dropped_by_reason"] == t_summary["dropped_by_reason"]
    assert m_summary["shun_events"] == t_summary["shun_events"]


def test_event_ring_does_not_change_execution():
    """keep_events retention tiers are recording-only."""
    params = ProtocolParams.for_parties(16)
    results = [
        Simulation(params=params, seed=0, keep_events=keep).run(
            ("weak_coin",), WeakCommonCoin.factory()
        )
        for keep in (False, True, 64, "all")
    ]
    baseline = results[0]
    for other in results[1:]:
        assert other.steps == baseline.steps
        assert other.outputs == baseline.outputs
        assert other.trace.messages_sent == baseline.trace.messages_sent


def test_jsonl_files_are_byte_identical_across_runs(tmp_path):
    """Same seed, same sink => byte-identical JSONL (sorted keys, fixed order)."""
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        api.run_weak_coin(8, seed=3, sinks=[JsonlSink(path)])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].stat().st_size > 0


#: The event stream itself, pinned: sha256 of the ``JsonlSink`` file, its
#: line count and the run's drops, as written when a traced trial queued
#: Messages and ran on a loop of its own.  They cover the random queue,
#: shuns with shun drops (a weak coin whose party 2 deals bad SVSS shares),
#: a class-ranked queue (``reactive-rush``), and lone sends -- 26 % of the
#: copies of a tampered trial (``tamper-on-share``), 29 % of those of a
#: keyed-queue trial whose bad-share dealers are shunned
#: (``rushing-coalition``) -- pinned as written when a lone send was a queue
#: slot shape of its own.  Three more were written when a corrupted sender's
#: fan-out still went out as lone sends: split payloads under one kind
#: (``equivocate-on-share``), a kind rewrite (``tamper-kind-noise``) and
#: receivers dropped under a non-random queue (``starved-dealer-withholds``).
STREAM_PINS = {
    "weak_coin_n7": (
        lambda sinks: api.run_weak_coin(7, seed=4, sinks=sinks),
        "70a119bc930ab76df4c91a2eb0daf26bedfc6b62b58f5c353ac4b9ae7546f3ec", 2234, 0,
    ),
    "bad_share_weak_coin_n8": (
        lambda sinks: api.run_weak_coin(
            8, seed=0, corruptions={2: attacks.BadShareBehavior.factory()}, sinks=sinks
        ),
        "959d7ea5069310ad55d4c94759964b8ea984303b2fbc287da0b3cd3858836b1f", 3351, 27,
    ),
    "reactive_rush_n7": (
        lambda sinks: run_scenario("reactive-rush", n=7, seed=2, sinks=sinks),
        "6fa789c3e034d3dcdeb8d9f96a75ec8291eb5f8a6725b6430c34a192f5e07d46", 2000, 0,
    ),
    "tamper_on_share_n7": (
        lambda sinks: run_scenario("tamper-on-share", n=7, seed=0, sinks=sinks),
        "41af50666ffac6f53acb47252b415fe208f54b4e42433b36820fceed68b677a5", 2267, 0,
    ),
    "rushing_coalition_n7": (
        lambda sinks: run_scenario("rushing-coalition", n=7, seed=0, sinks=sinks),
        "bd5bd693c4b64b8ab12935a76234e8bc649d308e5a389109a32679acd1e3c3ad", 2259, 12,
    ),
    "equivocate_on_share_n7": (
        lambda sinks: run_scenario("equivocate-on-share", n=7, seed=0, sinks=sinks),
        "296dd23c3fde83c8ad6f4b3fb40019960c0838b9a7466bfaa67b8f2d60155d54", 2163, 0,
    ),
    "tamper_kind_noise_n7": (
        lambda sinks: run_scenario("tamper-kind-noise", n=7, seed=0, sinks=sinks),
        "1c27d68e31f13235833c15c6030399ce4db5c035783d6233b0408783bb951f02", 2163, 0,
    ),
    "starved_dealer_withholds_n7": (
        lambda sinks: run_scenario("starved-dealer-withholds", n=7, seed=0, sinks=sinks),
        "bc4bf9f225deb0ed723bde7c85246b92e521764a13d90884dde6936647951b45", 328, 0,
    ),
}


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_the_event_stream_is_pinned(name, tmp_path):
    _check_stream_pin(name, tmp_path)


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_the_event_stream_is_pinned_when_every_reconstruction_interpolates(
    name, tmp_path, monkeypatch
):
    """The dealt-secret lookup is invisible: with it off, every SVSS-Rec
    interpolates, and the stream is the same byte for byte."""
    monkeypatch.setattr(kernels.CryptoPlane, "dealt_secret", lambda plane, pids, rows: None)
    _check_stream_pin(name, tmp_path)


def _check_stream_pin(name, tmp_path):
    run, digest, lines, drops = STREAM_PINS[name]
    path = tmp_path / "trace.jsonl"
    result = run([JsonlSink(path)])
    data = path.read_bytes()
    assert (len(data.splitlines()), result.message_stats["messages_dropped"]) == (lines, drops)
    assert hashlib.sha256(data).hexdigest() == digest
