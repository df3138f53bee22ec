"""Tests for binary asynchronous Byzantine agreement (Definition 3.3)."""

from __future__ import annotations

import pytest

from repro.adversary import CrashBehavior, RandomNoiseBehavior
from repro.core import api
from repro.net.protocol import Protocol
from repro.net.scheduler import FIFOScheduler
from repro.protocols.aba import (
    BinaryAgreement,
    CoinSource,
    LocalCoinSource,
    OracleCoinSource,
    ProtocolCoinSource,
)
from repro.protocols.weak_coin import WeakCommonCoin
from repro.scenarios.schedulers import targeted_delay


class TestValidity:
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_input_is_output(self, value):
        result = api.run_aba(4, {pid: value for pid in range(4)}, seed=value)
        assert result.agreed_value == value

    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_with_crash(self, value):
        inputs = {0: value, 1: value, 2: value}
        result = api.run_aba(
            4, inputs, seed=7 + value, corruptions={3: CrashBehavior.factory()}
        )
        assert result.agreed_value == value

    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_larger_system(self, value):
        result = api.run_aba(7, {pid: value for pid in range(7)}, seed=value)
        assert result.agreed_value == value


class TestAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_inputs_agree(self, seed):
        inputs = {0: 0, 1: 1, 2: seed % 2, 3: (seed + 1) % 2}
        result = api.run_aba(4, inputs, seed=seed)
        assert not result.disagreement
        assert result.agreed_value in (0, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_is_some_honest_input(self, seed):
        """With binary values and at least one of each, any output is valid;
        but with all-but-one identical the framework must not invent values."""
        inputs = {0: 1, 1: 1, 2: 1, 3: 0}
        result = api.run_aba(4, inputs, seed=seed)
        assert result.agreed_value in (0, 1)

    def test_mixed_inputs_with_crash(self):
        result = api.run_aba(
            4, {0: 0, 1: 1, 2: 0}, seed=3, corruptions={3: CrashBehavior.factory()}
        )
        assert not result.disagreement

    def test_noise_adversary(self):
        result = api.run_aba(
            4,
            {0: 1, 1: 0, 2: 1},
            seed=5,
            corruptions={3: RandomNoiseBehavior.factory()},
        )
        assert not result.disagreement

    def test_isolating_scheduler(self):
        result = api.run_aba(
            4, {0: 1, 1: 0, 2: 1, 3: 0}, seed=6, scheduler=targeted_delay(victims=[1])
        )
        assert not result.disagreement

    def test_fifo_scheduler(self):
        result = api.run_aba(4, {0: 1, 1: 0, 2: 1, 3: 0}, seed=1, scheduler=FIFOScheduler())
        assert not result.disagreement


#: The BA coin-source ablation: an ideal common coin, Ben-Or's local coin and
#: the SVSS weak coin.  Safety does not depend on the coin; cost does.
COIN_SOURCES = {
    "oracle": lambda: OracleCoinSource(7),
    "local": LocalCoinSource,
    "svss-weak-coin": lambda: ProtocolCoinSource(WeakCommonCoin.factory),
}


class TestCoinSources:
    @pytest.mark.parametrize("source", list(COIN_SOURCES))
    def test_split_inputs_agree_under_every_coin(self, source):
        for seed in range(10):
            result = api.run_aba(
                4, {0: 0, 1: 1, 2: 0, 3: 1}, seed=seed, coin_source=COIN_SOURCES[source]()
            )
            assert not result.disagreement
            assert result.agreed_value in (0, 1)

    def test_local_coin_terminates(self):
        result = api.run_aba(
            4, {0: 0, 1: 1, 2: 0, 3: 1}, seed=2, coin_source=LocalCoinSource()
        )
        assert not result.disagreement

    def test_weak_coin_protocol_source(self):
        """The fully information-theoretic stack: ABA driven by an SVSS-based weak coin."""
        source = ProtocolCoinSource(WeakCommonCoin.factory)
        result = api.run_aba(4, {0: 0, 1: 1, 2: 1, 3: 0}, seed=4, coin_source=source)
        assert not result.disagreement

    def test_oracle_coin_is_common(self):
        """All parties see the same oracle coin value for the same round."""
        from repro.core.config import ProtocolParams
        from repro.net.network import Network

        network = Network(ProtocolParams.for_parties(4), seed=0)
        source = OracleCoinSource(99)
        from repro.protocols.aba import BinaryAgreement

        instances = [
            BinaryAgreement(process, ("aba",), source) for process in network.processes
        ]
        coins = {source.immediate(instance, 5) for instance in instances}
        assert len(coins) == 1

    def test_oracle_coin_varies_with_round(self):
        from repro.core.config import ProtocolParams
        from repro.net.network import Network
        from repro.protocols.aba import BinaryAgreement

        network = Network(ProtocolParams.for_parties(4), seed=0)
        source = OracleCoinSource(1)
        instance = BinaryAgreement(network.processes[0], ("aba",), source)
        values = {source.immediate(instance, r) for r in range(64)}
        assert values == {0, 1}


class TestRobustness:
    def test_malformed_payloads_ignored(self):
        """Garbage BVAL/AUX rounds and values must not crash or corrupt agreement."""
        result = api.run_aba(
            4,
            {0: 1, 1: 1, 2: 0},
            seed=8,
            corruptions={3: RandomNoiseBehavior.factory(burst=4)},
        )
        assert not result.disagreement

    def test_statistical_validity_over_seeds(self):
        """Unanimous input 1 must never produce 0, over many schedules."""
        for seed in range(10):
            result = api.run_aba(4, {pid: 1 for pid in range(4)}, seed=seed)
            assert result.agreed_value == 1


# ----------------------------------------------------------------------
# Differential contract for the message handler.
#
# ``BinaryAgreement`` keeps its votes as sender bitmasks and counters and
# handles a message in one frame.  ``_SetModel`` below is the handler it
# replaced -- one set of senders per (round, value), a first-vote-wins AUX
# table, the accepted votes re-tallied on every message, recursion from round
# to round -- and the two must agree after every message of any sequence,
# well-formed or not.
class _SetModel:
    def __init__(self, n, t, coin):
        self.t1, self.quorum = t + 1, n - t
        self.coin = coin  # round -> bit, or None when the coin arrives later
        self.est = None
        self.round = 0
        self.decided = None
        self.halted = False
        self.finished = False
        self.rounds = {}
        self.coins = {}
        self.coin_requested = set()
        self.dones = {0: set(), 1: set()}
        self.log = []

    def _votes(self, round_index):
        return self.rounds.setdefault(
            round_index,
            {"bval_sent": set(), "bvals": {0: set(), 1: set()}, "bin": set(),
             "aux_sent": False, "aux": {}},
        )

    def start(self, value):
        self.est = 1 if value else 0
        self.log.append(("phase", f"round-{self.round}"))
        self._broadcast_bval(self.round, self.est)
        self._try_advance(self.round)

    def on_message(self, sender, payload):
        if not payload:
            return
        kind = payload[0]
        if kind in ("BVAL", "AUX"):
            if self.halted or len(payload) != 3:
                return
            round_index, value = payload[1], payload[2]
            if not (isinstance(round_index, int) and round_index >= 0 and value in (0, 1)):
                return
            # The one deliberate difference from the replaced handler: what is
            # re-broadcast is the canonical int, not the sender's own object.
            round_index, value = int(round_index), int(value)
            if kind == "BVAL":
                self._on_bval(sender, round_index, value)
            else:
                self._votes(round_index)["aux"].setdefault(sender, value)
                self._try_advance(round_index)
        elif kind == "DONE" and len(payload) == 2:
            value = payload[1]
            if value not in (0, 1):
                return
            value = int(value)
            self.dones[value].add(sender)
            if len(self.dones[value]) >= self.t1 and self.decided is None:
                self._decide(value)
            if len(self.dones[value]) >= self.quorum and self.decided == value:
                self.halted = True

    def on_coin(self, round_index, bit):
        self.coins[round_index] = bit
        self._try_advance(round_index)

    def _broadcast_bval(self, round_index, value):
        votes = self._votes(round_index)
        if value not in votes["bval_sent"]:
            votes["bval_sent"].add(value)
            self.log.append(("BVAL", round_index, value))

    def _on_bval(self, sender, round_index, value):
        votes = self._votes(round_index)
        votes["bvals"][value].add(sender)
        count = len(votes["bvals"][value])
        if count >= self.t1:
            self._broadcast_bval(round_index, value)
        if count >= self.quorum and value not in votes["bin"]:
            votes["bin"].add(value)
            self._maybe_send_aux(round_index)
            self._try_advance(round_index)

    def _maybe_send_aux(self, round_index):
        votes = self._votes(round_index)
        if round_index != self.round or votes["aux_sent"]:
            return
        if not votes["bin"] or self.est is None:
            return
        votes["aux_sent"] = True
        self.log.append(("AUX", round_index, min(votes["bin"])))

    def _try_advance(self, round_index):
        if self.est is None or round_index != self.round:
            return
        self._maybe_send_aux(round_index)
        votes = self._votes(round_index)
        if not votes["aux_sent"]:
            return
        accepted = [v for v in votes["aux"].values() if v in votes["bin"]]
        if len(accepted) < self.quorum:
            return
        if round_index not in self.coins:
            if round_index not in self.coin_requested:
                self.coin_requested.add(round_index)
                bit = self.coin(round_index)
                if bit is None:
                    self.log.append(("coin?", round_index))
                else:
                    self.coins[round_index] = bit
            if round_index not in self.coins:
                return
        coin = self.coins[round_index]
        values = set(accepted)
        if len(values) == 1:
            (self.est,) = values
            if self.est == coin and self.decided is None:
                self._decide(self.est)
        else:
            self.est = coin
        if self.halted:
            return
        self.round += 1
        self.log.append(("phase", f"round-{self.round}"))
        self._broadcast_bval(self.round, self.est)
        self._try_advance(self.round)

    def _decide(self, value):
        if self.decided is None:
            self.decided = value
            self.log.append(("DONE", value))
            self.finished = True
            self.log.append(("complete", value))


class _EventLog:
    """Trace sink: what the party under test broadcast, annotated and output."""

    def __init__(self):
        self.log = []

    def emit(self, event):
        if event.kind == "send":
            if event.detail.receiver == 0:
                self.log.append(event.detail.payload)
        elif event.kind == "phase":
            self.log.append(("phase", event.detail[1]))
        elif event.kind == "complete" and event.detail[0] == ("aba",):
            self.log.append(("complete", event.detail[1]))
        elif event.kind == "session_open" and event.detail[:2] == ("aba", "coin"):
            self.log.append(("coin?", event.detail[2]))


class _TableCoin(CoinSource):
    def __init__(self, table):
        self.table = table

    def immediate(self, protocol, round_index):
        return self.table(round_index)


class _HeldCoin(Protocol):
    """A coin sub-protocol that completes when the test says so."""


_ODD_VALUES = (True, False, 1.0, 0.0, 2, -1, None, "1", 0.5)
_ODD_ROUNDS = (True, False, -1, -(10**30), 10**30, 1.0, 0.0, None, "0", (0,))


def _random_payload(rng, current_round):
    kind = rng.choice(("BVAL", "BVAL", "AUX"))
    round_index = max(0, current_round + rng.choice((-2, -1, 0, 0, 0, 0, 0, 1, 1, 2)))
    value = rng.randrange(2)
    roll = rng.random()
    if roll < 0.72:
        return (kind, round_index, value)
    if roll < 0.80:
        return ("DONE", value)
    if roll < 0.88:
        odd = rng.choice(_ODD_VALUES)
        return rng.choice(((kind, round_index, odd), ("DONE", odd)))
    if roll < 0.94:
        return (kind, rng.choice(_ODD_ROUNDS), value)
    return rng.choice((
        (), (kind,), (kind, round_index), (kind, round_index, value, value),
        ("DONE",), ("DONE", value, value), ("NOISE", round_index, value), (None,),
    ))


@pytest.mark.parametrize("held_coin", [False, True], ids=["table-coin", "held-coin"])
@pytest.mark.parametrize("n", [4, 7])
def test_handler_matches_set_model(n, held_coin):
    import random

    from repro.core.config import ProtocolParams
    from repro.net.message import Message
    from repro.net.network import Network

    params = ProtocolParams.for_parties(n)
    seen = set()
    for seed in range(60):
        rng = random.Random(f"aba-differential-{n}-{held_coin}-{seed}")
        table = [rng.randrange(2) for _ in range(64)]
        events = _EventLog()
        network = Network(params, seed=seed, sinks=[events])
        process = network.processes[1]
        if held_coin:
            source = ProtocolCoinSource(lambda: _HeldCoin)
            model = _SetModel(n, params.t, lambda round_index: None)
        else:
            source = _TableCoin(lambda round_index: table[round_index % 64])
            model = _SetModel(n, params.t, source.table)
        instance = process.create_protocol(("aba",), BinaryAgreement.factory(source))
        # Some runs start only after traffic arrived: the process buffers it
        # and replays it right after on_start.
        start_at = rng.choice((0, 0, rng.randrange(1, 40)))
        buffered = []
        for index in range(400):
            if index == start_at:
                value = rng.randrange(2)
                instance.start(value=value)
                model.start(value)
                for sender, payload in buffered:
                    model.on_message(sender, payload)
                seen.add("replayed" if buffered else "started-first")
            elif held_coin and rng.random() < 0.25 and index > start_at:
                waiting = sorted(model.coin_requested - set(model.coins))
                if waiting:
                    round_index, bit = rng.choice(waiting), rng.randrange(2)
                    undecided = model.decided is None
                    instance.children[("coin", round_index)].complete(bit)
                    model.on_coin(round_index, bit)
                    if undecided and model.decided is not None:
                        seen.add("decided")
            else:
                sender = rng.randrange(n)
                payload = _random_payload(rng, model.round)
                process.deliver(Message(sender, 1, ("aba",), payload))
                if index < start_at:
                    buffered.append((sender, payload))
                else:
                    undecided, halted = model.decided is None, model.halted
                    if len(payload) == 3 and type(payload[1]) is int:
                        seen.add(
                            "past-round" if payload[1] < model.round
                            else "future-round" if payload[1] > model.round
                            else "current-round"
                        )
                    model.on_message(sender, payload)
                    if halted:
                        seen.add("after-halt")
                    if undecided and model.decided is not None:
                        seen.add("adopted" if payload[0] == "DONE" else "decided")
            where = (seed, index)
            assert events.log == model.log, where
            assert (
                instance.est, instance.round, instance.decided,
                instance.halted, instance.finished, instance.output,
            ) == (
                model.est, model.round, model.decided,
                model.halted, model.finished, model.decided,
            ), where
        # Whatever a sender put in its payload, an honest party's own
        # messages carry plain ints.
        for entry in events.log:
            if entry[0] in ("BVAL", "AUX", "DONE"):
                assert all(type(field) is int for field in entry[1:]), (seed, entry)
        if model.round >= 3:
            seen.add("deep")
        if model.halted:
            seen.add("halted")
    assert seen == {
        "replayed", "started-first", "past-round", "current-round", "future-round",
        "decided", "adopted", "halted", "after-halt", "deep",
    }


class _InstantCoin(Protocol):
    """A coin sub-protocol that completes inside ``spawn``: round parity."""

    def on_start(self, **_):
        self.complete(self.session[-1] & 1)


@pytest.mark.parametrize("seed", range(8))
def test_coin_completing_inside_spawn_advances_one_round(seed):
    """The child's completion re-enters the round logic from inside the coin
    request; the requesting frame must not advance a second time on what it
    read before the call (which skipped rounds, or never terminated)."""
    from repro.core.config import ProtocolParams
    from repro.net.runtime import Simulation

    sim = Simulation(ProtocolParams.for_parties(4), seed=seed, max_steps=20_000)
    result = sim.run(
        ("aba",),
        BinaryAgreement.factory(ProtocolCoinSource(lambda: _InstantCoin)),
        inputs={pid: {"value": pid % 2} for pid in range(4)},
    )
    assert not result.disagreement
    assert result.agreed_value in (0, 1)
    for process in result.network.processes:
        instance = process.protocol(("aba",))
        for round_index in range(instance.round):
            assert ("coin", round_index) in instance.children, (process.pid, round_index)
