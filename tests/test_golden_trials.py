"""Byte-identical regression fingerprints for whole protocol trials.

``golden_trials.json`` records ``[steps, sorted honest outputs, messages
sent, shun events]`` per (protocol, adversary, scheduler, seed) combination,
captured before the SVSS/ABA hot-path refactors.  Those refactors promise
*byte-identical* executions per seed -- same delivery counts, same outputs,
same shun events -- so any drift in these fingerprints is a behaviour change,
not an optimisation, and must fail loudly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.adversary import attacks, behaviors
from repro.core import api
from repro.crypto import kernels
from repro.net.scheduler import delay_to_parties
from repro.protocols.aba import LocalCoinSource, ProtocolCoinSource
from repro.protocols.weak_coin import WeakCommonCoin

GOLDEN = json.loads((Path(__file__).parent / "golden_trials.json").read_text())


@pytest.fixture(autouse=True, params=["auto", "scalar", "auto-weights", "scalar-weights"])
def plane(request, monkeypatch):
    """Every golden on both crypto planes, with and without the secret lookup.

    ``auto`` is what the engine picks (vectorised from n=7 up when numpy is
    importable); ``scalar`` hides numpy from the kernels, so every plan is the
    plain-int oracle -- the configuration of a box without numpy.  A
    ``-weights`` variant turns ``CryptoPlane.dealt_secret`` off, so every
    reconstruction interpolates.  The fingerprints must not know the
    difference.
    """
    mode, _, lookup = request.param.partition("-")
    if lookup:
        monkeypatch.setattr(kernels.CryptoPlane, "dealt_secret", lambda plane, pids, rows: None)
    if mode == "auto":
        yield
        return
    if kernels.numpy_module() is None:
        pytest.skip("numpy is not importable: auto already is the scalar plane")
    kernels.get_eval_plan.cache_clear()
    monkeypatch.setattr(kernels, "numpy_module", lambda: None)
    assert kernels.get_eval_plan(2**31 - 1, 16).mode == "scalar"
    yield
    kernels.get_eval_plan.cache_clear()


def _fingerprint(result, with_shuns: bool = True):
    entry = [
        result.steps,
        [[pid, value] for pid, value in sorted(result.outputs.items())],
        result.trace.messages_sent,
    ]
    if with_shuns:
        entry.append(len(result.trace.shun_events))
    return entry


def _check(key, result, with_shuns: bool = True):
    assert _fingerprint(result, with_shuns) == GOLDEN[key], key


@pytest.mark.parametrize("seed", range(3))
def test_svss_honest(seed):
    _check(f"svss_n7_s{seed}", api.run_svss(7, 12345, seed=seed))


@pytest.mark.parametrize("seed", range(3))
def test_svss_withholding_dealer(seed):
    result = api.run_svss(
        7,
        999,
        seed=seed,
        corruptions={0: attacks.WithholdingDealerBehavior.factory(victims=[3, 4])},
    )
    _check(f"svss_withhold_n7_s{seed}", result)


@pytest.mark.parametrize("seed", range(3))
def test_svss_bad_share(seed):
    result = api.run_svss(
        7, 31337, seed=seed, corruptions={2: attacks.BadShareBehavior.factory()}
    )
    _check(f"svss_badshare_n7_s{seed}", result)


@pytest.mark.parametrize("seed", range(2))
def test_svss_mixed_corruption(seed):
    result = api.run_svss(
        10,
        777,
        seed=seed,
        corruptions={
            1: attacks.PointCorruptingBehavior.factory(),
            5: attacks.BadShareBehavior.factory(),
        },
    )
    _check(f"svss_mixed_n10_s{seed}", result)


@pytest.mark.parametrize("seed", range(2))
def test_svss_withhold_under_starvation(seed):
    result = api.run_svss(
        7,
        4242,
        seed=seed,
        scheduler=delay_to_parties([3], max_delay_steps=120),
        corruptions={0: attacks.WithholdingDealerBehavior.factory(victims=[3])},
    )
    _check(f"svss_starve_n7_s{seed}", result)


@pytest.mark.parametrize("seed", range(4))
def test_aba(seed):
    bits = {pid: pid % 2 for pid in range(7)}
    _check(f"aba_n7_s{seed}", api.run_aba(7, bits, seed=seed), with_shuns=False)


@pytest.mark.parametrize("seed", range(2))
def test_aba_with_crash(seed):
    bits = {pid: (pid // 2) % 2 for pid in range(10)}
    result = api.run_aba(
        10, bits, seed=seed, corruptions={9: behaviors.CrashBehavior.factory()}
    )
    _check(f"aba_crash_n10_s{seed}", result, with_shuns=False)


@pytest.mark.parametrize("seed", range(3))
def test_weak_coin(seed):
    _check(f"weakcoin_n7_s{seed}", api.run_weak_coin(7, seed=seed))


@pytest.mark.parametrize("seed", range(2))
def test_weak_coin_n16(seed):
    _check(f"weakcoin_n16_s{seed}", api.run_weak_coin(16, seed=seed))


@pytest.mark.parametrize("seed", range(2))
def test_weak_coin_n32(seed):
    # The n32 preset prime (million-scale): the batched single-matmul path.
    _check(f"weakcoin_n32_s{seed}", api.run_weak_coin(32, seed=seed, prime=1_000_003))


def test_weak_coin_n32_default_prime_matches_frozen_stack():
    """End-to-end coverage of the plane's 16-bit split mode (the default prime
    on a vectorised plan).  The entry is the answer of the pre-batching stack (the PR-4
    implementation), recorded at the last commit that ran it beside the live
    one (CHANGES.md, PR 20); the untraced run is the one that takes the
    group-mode split plan."""
    _check_both_loops(
        "weakcoin_n32_p2147483647_s5",
        lambda tracing: api.run_weak_coin(32, seed=5, tracing=tracing),
        with_shuns=True,
    )


@pytest.mark.parametrize("seed", range(2))
def test_coinflip_n16(seed):
    _check(f"coinflip_n16_s{seed}", api.run_coinflip(16, seed=seed, rounds=1))


def test_coinflip_n32():
    _check("coinflip_n32_s0", api.run_coinflip(32, seed=0, rounds=1, prime=1_000_003))


@pytest.mark.parametrize("seed", range(3))
def test_coinflip(seed):
    _check(f"coinflip_n4_s{seed}", api.run_coinflip(4, seed=seed, rounds=2))


@pytest.mark.parametrize("seed", range(2))
def test_coinflip_with_crash(seed):
    result = api.run_coinflip(
        7, seed=seed, rounds=1, corruptions={6: behaviors.CrashBehavior.factory()}
    )
    _check(f"coinflip_crash_n7_s{seed}", result)


@pytest.mark.parametrize("seed", range(2))
def test_fba(seed):
    result = api.run_fba(4, {0: "a", 1: "b", 2: "a", 3: "b"}, seed=seed)
    _check(f"fba_n4_s{seed}", result, with_shuns=False)


# ----------------------------------------------------------------------
# The agreement plane (BinaryAgreement under CommonSubset / FBA, and every
# coin source), pinned with tracing on *and* off: both ride the one delivery
# loop and its inlined route, the traced run logging every delivery and
# storing the step for its hooks, and both must reproduce one fingerprint.
def _check_both_loops(key, run, with_shuns: bool = False):
    for tracing in (True, False):
        result = run(tracing=tracing)
        entry = [
            result.steps,
            [[pid, value] for pid, value in sorted(result.outputs.items())],
            result.message_stats["messages_sent"],
        ]
        if with_shuns:
            entry.append(result.message_stats["shun_events"])
        assert entry == GOLDEN[key], (key, tracing)


@pytest.mark.parametrize("seed", range(3))
def test_fba_n8(seed):
    """The perf ledger's ``fba_n8`` parameters (eight BAs per CommonSubset)."""
    bits = {pid: pid % 2 for pid in range(8)}
    _check_both_loops(
        f"fba_n8_s{seed}",
        lambda tracing: api.run_fba(
            8, bits, seed=seed, coinflip_rounds=1, tracing=tracing
        ),
    )


@pytest.mark.parametrize("seed", range(2))
def test_aba_with_noise(seed):
    bits = {pid: pid % 2 for pid in range(6)}
    _check_both_loops(
        f"aba_noise_n7_s{seed}",
        lambda tracing: api.run_aba(
            7,
            bits,
            seed=seed,
            corruptions={6: behaviors.RandomNoiseBehavior.factory()},
            tracing=tracing,
        ),
    )


def test_aba_over_weak_coin():
    """A protocol coin per round: the ``on_child_complete`` path."""
    _check_both_loops(
        "aba_weakcoin_n4_s0",
        lambda tracing: api.run_aba(
            4,
            {0: 0, 1: 1, 2: 1, 3: 0},
            seed=0,
            coin_source=ProtocolCoinSource(WeakCommonCoin.factory),
            tracing=tracing,
        ),
    )


@pytest.mark.parametrize("seed", range(2))
def test_aba_over_local_coins(seed):
    """Independent local coins: three to four rounds per party."""
    bits = {pid: pid % 2 for pid in range(4)}
    _check_both_loops(
        f"aba_localcoin_n4_s{seed}",
        lambda tracing: api.run_aba(
            4, bits, seed=seed, coin_source=LocalCoinSource(), tracing=tracing
        ),
    )


# ----------------------------------------------------------------------
# SVSS under attack at n=25 -- well above the plane's vectorisation cutoff
# (``kernels._NUMPY_MIN_N``), so with numpy these runs go through the matmul /
# split plans and without it through the scalar oracle.
# Honestly dealt rows share the plane with withheld-and-recovered, corrupted
# and rejected ones; shun events are part of the fingerprint.
def _svss_n25(name, seed, secret, corruptions, **extra):
    _check_both_loops(
        f"{name}_s{seed}",
        lambda tracing: api.run_svss(
            25, secret, seed=seed, corruptions=corruptions, tracing=tracing, **extra
        ),
        with_shuns=True,
    )


@pytest.mark.parametrize("seed", range(2))
def test_svss_withholding_dealer_n25(seed):
    _svss_n25(
        "svss_withhold_n25",
        seed,
        999,
        {0: attacks.WithholdingDealerBehavior.factory(victims=[3, 4])},
    )


@pytest.mark.parametrize("seed", range(2))
def test_svss_bad_share_n25(seed):
    _svss_n25("svss_badshare_n25", seed, 31337, {2: attacks.BadShareBehavior.factory()})


@pytest.mark.parametrize("seed", range(2))
def test_svss_mixed_corruption_n25_matmul_prime(seed):
    _svss_n25(
        "svss_mixed_n25_p1000003",
        seed,
        777,
        {
            1: attacks.PointCorruptingBehavior.factory(),
            5: attacks.BadShareBehavior.factory(),
        },
        prime=1_000_003,
    )
