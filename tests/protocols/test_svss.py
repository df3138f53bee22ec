"""Tests for the shunning VSS (Definition 3.2)."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.adversary import (
    BadShareBehavior,
    CrashBehavior,
    HonestButMutatingBehavior,
    PointCorruptingBehavior,
    WithholdingDealerBehavior,
)
from repro.core import api
from repro.core.config import ProtocolParams
from repro.crypto import kernels
from repro.net.message import Message
from repro.net.network import Network
from repro.net.runtime import Simulation
from repro.net.scheduler import FIFOScheduler
import repro
from repro.protocols import svss
from repro.protocols.svss import (
    SEARCH_BUDGET,
    SVSSRec,
    SVSSShare,
    _validate_row_ints,
    party_point,
)


class TestHonestDealer:
    @pytest.mark.parametrize("secret", [0, 1, 12345, 2_147_483_646])
    def test_validity(self, secret):
        """Definition 3.2 Validity: honest dealer's secret is reconstructed."""
        result = api.run_svss(4, secret, dealer=0, seed=secret % 97)
        assert result.agreed_value == secret

    @pytest.mark.parametrize("dealer", [0, 1, 2, 3])
    def test_any_dealer(self, dealer):
        result = api.run_svss(4, 42, dealer=dealer, seed=dealer)
        assert result.agreed_value == 42

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_across_seeds(self, seed):
        result = api.run_svss(4, 7, dealer=0, seed=seed)
        assert not result.disagreement

    def test_larger_system(self):
        result = api.run_svss(7, 99, dealer=2, seed=3)
        assert result.agreed_value == 99
        assert len(result.outputs) == 7

    def test_no_shunning_in_honest_runs(self):
        result = api.run_svss(4, 5, dealer=0, seed=11)
        assert result.trace.total_shun_events() == 0

    def test_fifo_scheduler(self):
        result = api.run_svss(4, 5, dealer=1, seed=0, scheduler=FIFOScheduler())
        assert result.agreed_value == 5

    def test_crashed_party_does_not_block(self):
        result = api.run_svss(
            4, 1234, dealer=0, seed=2, corruptions={3: CrashBehavior.factory()}
        )
        assert result.agreed_value == 1234
        assert set(result.outputs) == {0, 1, 2}


def _textbook_row(matrix, x, prime):
    """``f_x(y) = F(x, y)``: coefficient ``j`` is ``sum_a c[a][j] x^a``, trimmed."""
    size = len(matrix)
    row = [sum(matrix[a][j] * pow(x, a, prime) for a in range(size)) % prime for j in range(size)]
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return tuple(row)


class TestShareStateStructure:
    @pytest.mark.parametrize("n", [4, 7, 10, 16])
    def test_share_row_matches_dealer_polynomial(self, n):
        """Each party's row is the dealer's bivariate polynomial restricted to
        its index, on the scalar plan (n = 4) and the vectorised one."""
        params = ProtocolParams.for_parties(n)
        prime, t = params.prime, params.t
        sim = Simulation(params, seed=5, scheduler=FIFOScheduler())
        network = sim.build_network()
        for process in network.processes:
            kwargs = {"value": 77} if process.pid == 0 else {}
            process.create_protocol(("share",), SVSSShare.factory(0)).start(**kwargs)
        network.run(until=lambda net: net.all_honest_finished(("share",)))
        matrix = network.processes[0].protocol(("share",)).secret_matrix
        assert matrix[0][0] == 77
        assert all(matrix[i][j] == matrix[j][i] for i in range(t + 1) for j in range(t + 1))
        for process in network.processes:
            share_state = process.protocol(("share",)).output
            row = _textbook_row(matrix, party_point(process.pid), prime)
            assert share_state.row_ints == row
            assert not share_state.recovered

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_hiding_before_reconstruction(self, n):
        """No t parties' rows determine the secret (information-theoretic hiding)."""
        params = ProtocolParams.for_parties(n)
        prime, t = params.prime, params.t
        sim = Simulation(params, seed=6, scheduler=FIFOScheduler())
        network = sim.build_network()
        for process in network.processes:
            kwargs = {"value": 0} if process.pid == 0 else {}
            process.create_protocol(("share",), SVSSShare.factory(0)).start(**kwargs)
        network.run(until=lambda net: net.all_honest_finished(("share",)))
        # The rows of parties 1..t constrain F(alpha_i, y) but leave F(0, 0)
        # free: for any candidate secret, F + (candidate - secret) h(x) h(y)
        # with h(z) = prod_i (1 - z / alpha_i) is symmetric, of degree t, and
        # deals each of those parties the very same row.
        matrix = network.processes[0].protocol(("share",)).secret_matrix
        coalition = range(1, t + 1)
        h = [1]
        for pid in coalition:  # h <- h * (1 - z / alpha_pid)
            factor = -pow(party_point(pid), prime - 2, prime) % prime
            h = [
                ((h[k] if k < len(h) else 0) + (factor * h[k - 1] if k else 0)) % prime
                for k in range(len(h) + 1)
            ]
        for candidate in (0, 1, 99):
            delta = candidate - matrix[0][0]
            other = [
                [(matrix[a][b] + delta * h[a] * h[b]) % prime for b in range(t + 1)]
                for a in range(t + 1)
            ]
            assert other[0][0] == candidate
            for pid in coalition:
                row = network.processes[pid].protocol(("share",)).output.row_ints
                assert _textbook_row(other, party_point(pid), prime) == row


class TestWithholdingDealer:
    @pytest.mark.parametrize("victim", [1, 2])
    def test_victim_recovers_row(self, victim):
        """A dealer that withholds one victim's row cannot block termination."""
        result = api.run_svss(
            4,
            50,
            dealer=0,
            seed=victim,
            corruptions={0: WithholdingDealerBehavior.factory(victims=[victim])},
        )
        # The corrupted dealer still runs the honest code (minus the withheld
        # row), so every honest party terminates and agrees.
        assert victim in result.outputs
        values = {repr(v) for pid, v in result.outputs.items()}
        assert len(values) == 1

    @pytest.mark.parametrize("secret,seed", [(50, 3)] + [(99, seed) for seed in range(12)])
    def test_recovered_flag_set(self, secret, seed):
        """The withheld victim terminates through row recovery."""
        sim_result = api.run_svss(
            4,
            secret,
            dealer=0,
            seed=seed,
            corruptions={0: WithholdingDealerBehavior.factory(victims=[2])},
        )
        network = sim_result.network
        share = network.processes[2].protocol(("svss_harness", "share"))
        assert share.output.recovered


class TestSearchBudget:
    """Row recovery's exhaustive search runs only within ``SEARCH_BUDGET``
    candidates; above it a party waits for its next vouched point."""

    @staticmethod
    def _recover(n, errors, monkeypatch):
        """Recover from ``n - t`` vouched points, ``errors`` of them off the
        row: one more than Berlekamp-Welch tolerates, so only the search
        could answer.  Returns the answer and the sizes of the searches
        entered; each search is recorded, not run."""
        network = Network(ProtocolParams.for_parties(n), seed=0)
        params = network.params
        share = network.processes[0].create_protocol(("share",), SVSSShare.factory(1))
        rng = random.Random(n)
        row = [rng.randrange(params.prime) for _ in range(params.t + 1)]
        usable = {
            pid: kernels.horner(params.prime, row, party_point(pid))
            for pid in range(n - params.t)
        }
        for pid in range(errors):
            usable[pid] = (usable[pid] + 1) % params.prime
        searches = []

        def recording(pool, r):
            searches.append(math.comb(len(pool), r))
            return iter(())

        monkeypatch.setattr(svss.itertools, "combinations", recording)
        return share._recover_from_points(usable), searches

    def test_budget_is_the_largest_search_at_16_parties(self):
        assert SEARCH_BUDGET == math.comb(16, 6) == 8008

    def test_a_search_within_the_budget_is_entered(self, monkeypatch):
        # n=7: k=5 vouched points, t=2, one error tolerated; two given.
        _, searches = self._recover(7, 2, monkeypatch)
        assert searches == [math.comb(5, 3)]

    def test_no_search_above_the_budget_is_entered(self, monkeypatch):
        # n=32: k=22, t=10, C(22, 11) = 705 432 candidates.
        answer, searches = self._recover(32, 6, monkeypatch)
        assert answer is None
        assert searches == []

    def test_a_32_party_tampered_trial_finishes(self):
        """It ran past 45 s before the budget.  A subprocess with a timeout, so
        a regression fails instead of hanging the suite."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        script = """
            import itertools, math
            from repro.protocols import svss
            from repro.scenarios import check_scenario_result, get_scenario, run_scenario

            searches = [0]
            combinations = itertools.combinations

            def recording(pool, r):
                searches.append(math.comb(len(pool), r))
                return combinations(pool, r)

            svss.itertools.combinations = recording
            result = run_scenario("tamper-on-share", n=32, seed=7, tracing=False)
            assert not check_scenario_result(get_scenario("tamper-on-share"), result)
            print(len(result.outputs), max(searches))
        """
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs, largest_search = map(int, proc.stdout.split())
        assert outputs == 22
        assert largest_search <= SEARCH_BUDGET


class TestByzantineReconstruction:
    @pytest.mark.parametrize("seed", range(4))
    def test_binding_or_shun(self, seed):
        """A corrupted row in SVSS-Rec either changes nothing or triggers a shun."""
        result = api.run_svss(
            4,
            600 + seed,
            dealer=0,
            seed=seed,
            corruptions={3: BadShareBehavior.factory()},
        )
        wrong = [v for v in result.outputs.values() if v != 600 + seed]
        if wrong:
            assert result.trace.total_shun_events() >= 1
        # With an honest dealer the victimised parties can still be outvoted;
        # at minimum, agreement-or-shun must hold.
        if result.disagreement:
            assert result.trace.total_shun_events() >= 1

    @pytest.mark.parametrize("kind", ["ROW", "RECROW"])
    def test_empty_row_payload_is_the_zero_polynomial(self, kind):
        """A dealer sending an empty coefficient tuple must not crash anyone.

        ``()`` is the zero polynomial; row validation must normalise it to
        ``(0,)`` or honest parties index ``row[0]`` off the end
        mid-reconstruction.
        """
        def empty_rows(receiver, session, payload):
            if payload and payload[0] == kind:
                return receiver, session, (kind, ())
            return receiver, session, payload

        result = api.run_svss(
            4,
            12345,
            dealer=0,
            seed=1,
            corruptions={0: lambda process: HonestButMutatingBehavior(empty_rows)},
        )
        # Honest parties survive and reconstruct *something* consistently.
        assert set(result.outputs) == {1, 2, 3}

    def test_point_corruption_does_not_block_share(self):
        result = api.run_svss(
            4,
            321,
            dealer=0,
            seed=5,
            corruptions={2: PointCorruptingBehavior.factory()},
        )
        assert 0 in result.outputs and 1 in result.outputs and 3 in result.outputs

    def test_shun_events_bounded_by_n_squared(self):
        """Across many sessions the number of shun events stays below n^2."""
        total = 0
        for seed in range(6):
            result = api.run_svss(
                4,
                seed,
                dealer=0,
                seed=seed,
                corruptions={3: BadShareBehavior.factory()},
            )
            total += result.trace.total_shun_events()
        assert total < 16


# ----------------------------------------------------------------------
# The plane's value-keyed row cache must not let an equal payload of another
# type stand in for a validated row: ``(5.0, 7.0) == (5, 7)``, hashes included.
def _without_row_caching(monkeypatch):
    """Every row payload validated and evaluated from scratch, nothing held."""

    def validate_row_record(plane, coefficients):
        row = _validate_row_ints(plane.prime, plane.t, coefficients)
        if row is None:
            return None
        return row, kernels.eval_at_many(plane.prime, row, range(1, plane.n + 1))

    monkeypatch.setattr(kernels.CryptoPlane, "validate_row_record", validate_row_record)
    monkeypatch.setattr(
        kernels.CryptoPlane,
        "deal_rows",
        lambda plane, matrix: plane.plan.bivariate_rows(matrix),
        raising=False,
    )


def test_float_alias_of_a_cached_row_is_validated_not_looked_up(monkeypatch):
    """A party re-sending its own RECROW row as floats is shunned by exactly
    the receivers that would shun it with no cache at all."""

    def floaty(receiver, session, payload):
        if payload[0] == "RECROW":
            payload = ("RECROW", tuple(float(c) for c in payload[1]))
        return receiver, session, payload

    def shuns():
        return [
            api.run_svss(
                4, 1234, seed=seed,
                corruptions={3: lambda process: HonestButMutatingBehavior(floaty)},
            ).trace.shun_events
            for seed in range(6)
        ]

    cached = shuns()
    _without_row_caching(monkeypatch)
    assert cached == shuns()
    assert sum(map(len, cached)) > 0


# ----------------------------------------------------------------------
# SVSS-Rec completes by lookup from rows an honest dealer dealt to those very
# parties (``CryptoPlane.dealt_secret``); any other sharing is interpolated.
def _reconstructions(result, dealer=None):
    """How many parties completed SVSS-Rec of ``dealer`` (of every dealer)."""
    coins = [process.protocol(("weak_coin",)) for process in result.network.processes]
    return sum(
        len(coin.reconstructed) if dealer is None else dealer in coin.reconstructed
        for coin in coins
    )


def test_an_honest_coin_reconstructs_every_sharing_by_lookup():
    result = api.run_weak_coin(16, seed=5, metrics=True)
    plane_cache = result.metrics["crypto"]["plane_cache"]
    assert plane_cache["weight_misses"] == 0
    assert plane_cache["secret_hits"] == _reconstructions(result) > 16


def test_a_sharing_the_plane_never_dealt_is_interpolated():
    """A dealer that runs honestly but sends each party the row of a second
    symmetric matrix deals a consistent sharing the plane never tagged: its
    reconstructions take the weights path and output that matrix's F(0, 0),
    while the honest dealers' sharings of the same coin are looked up."""
    n, dealer = 7, 6
    params = ProtocolParams.for_parties(n)
    prime, t = params.prime, params.t
    rng = random.Random(21)
    matrices = {}

    def second_sharing(receiver, session, payload):
        if session not in matrices:
            matrices[session] = kernels.random_symmetric_matrix(
                prime, t, rng, rng.randrange(prime)
            )
        row = kernels.bivariate_row(prime, matrices[session], party_point(receiver))
        return receiver, session, ("ROW", kernels.poly_trim(row))

    result = api.run_weak_coin(
        n,
        seed=3,
        corruptions={
            dealer: lambda process: HonestButMutatingBehavior(second_sharing, kinds=("ROW",))
        },
    )
    ((_, matrix),) = matrices.items()
    assert {
        process.protocol(("weak_coin",)).reconstructed.get(dealer, matrix[0][0])
        for process in result.network.processes
    } == {matrix[0][0]}
    stats = result.network.crypto_plane().stats
    assert stats["weight_misses"] == _reconstructions(result, dealer) > 0
    assert stats["secret_hits"] == _reconstructions(result) - stats["weight_misses"] > 0


# ----------------------------------------------------------------------
# Differential model.  The handlers answer every row question from the
# network-wide crypto plane -- seeded by the dealer's grid product, probed by
# identity, filled on first sight.  The model below keeps no cache and asks
# the scalar kernels each time (``_validate_row_ints``, ``horner``,
# ``lagrange_weights_at_zero``); after every delivery the two must agree on
# what the party sent, whom it shuns and what it holds.
class _PartyModel:
    """One party's SVSS-Share and SVSS-Rec, recomputed from scratch each time."""

    def __init__(self, pid, dealer, n, t, prime, probe_rng):
        self.pid, self.dealer, self.n, self.t, self.prime = pid, dealer, n, t, prime
        self.quorum = n - t
        self.probe_rng = probe_rng
        self.log = []
        self.shunned = set()
        # Share.
        self.row = None
        self.recovered = False
        self.points = {}
        self.ready = set()
        self.points_sent = self.ready_sent = self.share_done = False
        # Rec.
        self.rec_started = self.rec_done = False
        self.rec_pending = []
        self.rec_output = None
        self.received = {}
        self.validated = {}

    def at(self, row, pid):
        return kernels.horner(self.prime, row, party_point(pid))

    def shun(self, party):
        if party != self.pid and party not in self.shunned:
            self.shunned.add(party)
            self.log.append(("shun", party))

    def broadcast(self, session, *payload):
        self.log.extend(("send", r, session, payload) for r in range(self.n))

    # -- SVSS-Share ----------------------------------------------------
    def deal(self, matrix):
        for receiver in range(self.n):
            row = kernels.poly_trim(
                kernels.bivariate_row(self.prime, matrix, party_point(receiver))
            )
            self.log.append(("send", receiver, "share", ("ROW", row)))

    def on_share(self, sender, payload):
        if not payload:
            return
        kind = payload[0]
        if kind == "POINT" and len(payload) == 2:
            value = payload[1]
            if not isinstance(value, int):
                self.shun(sender)
            elif sender in self.points:
                if self.points[sender] != value:
                    self.shun(sender)
            else:
                self.points[sender] = value
                if self.row is None:
                    self.maybe_recover()
                else:
                    self.maybe_ready()
        elif kind == "READY" and len(payload) == 1:
            if not self.share_done:
                self.ready.add(sender)
                if self.row is None:
                    self.maybe_recover()
                else:
                    self.maybe_complete()
        elif kind == "ROW" and len(payload) == 2 and sender == self.dealer:
            row = _validate_row_ints(self.prime, self.t, payload[1])
            if row is None:
                self.shun(sender)
            elif self.row is None:
                self.row = row
                self.row_known()
            elif row != self.row and not self.recovered:
                self.shun(sender)

    def row_known(self):
        self.log.append(("phase", "share", "row"))
        if not self.points_sent:
            self.points_sent = True
            self.log.extend(
                ("send", r, "share", ("POINT", self.at(self.row, r)))
                for r in range(self.n)
                if r != self.pid
            )
        self.maybe_ready()
        self.maybe_complete()

    def maybe_ready(self):
        # Our own point counts by construction; every stored point that lies
        # on our row counts once more (its sender included, whoever it is).
        agreeing = 1 + sum(self.at(self.row, s) == v for s, v in self.points.items())
        if not self.ready_sent and agreeing >= self.quorum:
            self.ready_sent = True
            self.log.append(("phase", "share", "ready"))
            self.broadcast("share", "READY")

    def maybe_complete(self):
        if not self.share_done and len(self.ready) >= self.quorum:
            self.share_done = True
            self.log.append(("complete", "share", (self.dealer, self.row, self.recovered)))

    def maybe_recover(self):
        threshold = self.t + 1 if self.dealer in self.shunned else self.quorum
        usable = {s: v for s, v in sorted(self.points.items()) if s in self.ready}
        if len(self.ready) < threshold or len(usable) < self.t + 1:
            return
        candidate = self.recover(usable)
        if candidate is not None:
            self.row, self.recovered = candidate, True
            self.row_known()

    def recover(self, usable):
        """The row the exhaustive (t+1)-subset search of the seed returns:
        maximal agreement with the raw values, at least t+1, first found
        wins.  A candidate agreeing with more than (k+t)/2 points is the
        strict maximum whichever subset produced it, so a few seeded probes
        spare the enumeration where it would not end."""
        senders = list(usable)
        k, t = len(senders), self.t

        def candidate(subset):
            xs = tuple(party_point(senders[i]) for i in subset)
            ys = [usable[senders[i]] % self.prime for i in subset]
            row = kernels.poly_trim(kernels.interpolate(self.prime, xs, ys))
            return row, sum(self.at(row, s) == usable[s] for s in senders)

        for _ in range(64):
            row, agreement = candidate(sorted(self.probe_rng.sample(range(k), t + 1)))
            if 2 * agreement > k + t:
                return row
        if math.comb(k, t + 1) > SEARCH_BUDGET:
            return None
        best, best_agreement = None, t
        for subset in itertools.combinations(range(k), t + 1):
            row, agreement = candidate(subset)
            if agreement > best_agreement:
                best, best_agreement = row, agreement
        return best

    # -- SVSS-Rec ------------------------------------------------------
    def rec_start(self):
        self.rec_started = True
        self.validated[self.pid] = self.row
        self.broadcast("rec", "RECROW", self.row)
        self.maybe_reconstruct()
        for sender, payload in self.rec_pending:
            self.on_rec(sender, payload)

    def on_rec(self, sender, payload):
        if not self.rec_started:
            self.rec_pending.append((sender, payload))
            return
        if not payload or payload[0] != "RECROW" or len(payload) != 2:
            return
        row = _validate_row_ints(self.prime, self.t, payload[1])
        if row is None:
            self.shun(sender)
        elif sender in self.received:
            if self.received[sender] != row:
                self.shun(sender)
        else:
            self.received[sender] = row
            if sender == self.pid:
                pass
            elif self.at(row, self.pid) == self.at(self.row, sender):
                self.validated[sender] = row
                self.maybe_reconstruct()
            else:
                self.shun(sender)

    def maybe_reconstruct(self):
        if self.rec_done or len(self.validated) < self.t + 1:
            return
        chosen = sorted(self.validated)[: self.t + 1]
        weights = kernels.lagrange_weights_at_zero(
            self.prime, tuple(party_point(pid) for pid in chosen)
        )
        self.rec_done = True
        self.rec_output = (
            sum(w * self.validated[pid][0] for w, pid in zip(weights, chosen)) % self.prime
        )
        self.log.append(("complete", "rec", self.rec_output))


class _PartyLogs:
    """Trace sink: per party, what its two instances sent, shunned and output."""

    def __init__(self, n):
        self.logs = [[] for _ in range(n)]
        self.sent = []

    def emit(self, event):
        kind, detail = event.kind, event.detail
        if kind == "send":
            self.sent.append(detail)
            entry = ("send", detail.receiver, detail.session[0], detail.payload)
        elif kind == "shun":
            entry = ("shun", detail[0])
        elif kind == "phase":
            entry = ("phase", detail[0][0], detail[1])
        elif kind == "complete":
            value = detail[1]
            if detail[0] == ("share",):
                value = (value.dealer, value.row_ints, value.recovered)
            entry = ("complete", detail[0][0], value)
        else:
            return
        self.logs[event.party].append(entry)


def _odd_row(rng, row, prime, t):
    """A coefficient payload derived from ``row``: aliases, copies, junk."""
    row = tuple(row)
    return rng.choice((
        row[:],                                   # the object itself
        tuple(list(row)),                         # an equal copy
        list(row),                                # a valid non-tuple container
        row + (0, 0),                             # untrimmed
        tuple(c + prime for c in row),            # unreduced
        tuple(c - prime for c in row),            # negative
        tuple(c + prime * 10**30 for c in row),   # huge
        tuple(float(c) for c in row),             # float alias: equal, same hash
        (bool(row[0] % 2),) + row[1:],            # bool: an int, maybe an alias
        (row[0] + 1,) + row[1:],                  # another polynomial
        tuple(rng.randrange(prime) for _ in range(rng.randrange(1, t + 2))),
        row + (0,) * (t + 1 - len(row)) + (1,),   # degree t + 1
        (),
        (1, [2], 3),
        (1, "x"),
        "row",
        None,
        7,
    ))


def _odd_point(rng, value, prime):
    if not isinstance(value, int):
        value = 1
    return rng.choice((
        value, value, value + 1, value + prime, value - prime,
        float(value), value == 1, None, "1", (value,),
    ))


def _mutated(rng, message, n, t, prime):
    """An adversarial relative of an honest message: same slot, other content."""
    sender, receiver = message.sender, message.receiver
    session, payload = message.session, message.payload
    kind = payload[0]
    roll = rng.random()
    if roll < 0.15:
        sender = rng.randrange(n)                  # e.g. a ROW from a non-dealer
    elif roll < 0.25:
        receiver = rng.randrange(n)
    elif roll < 0.30:
        session = ("rec",) if session == ("share",) else ("share",)
    if kind in ("ROW", "RECROW"):
        payload = (kind, _odd_row(rng, payload[1], prime, t))
    elif kind == "POINT":
        payload = (kind, _odd_point(rng, payload[1], prime))
    if rng.random() < 0.08:
        payload = rng.choice(((), (kind,), payload + (0,), ("NOISE", 1), (None,)))
    return Message(sender, receiver, session, payload)


@pytest.mark.parametrize("n,seeds", [(4, 150), (7, 60), (25, 10)])
def test_handlers_match_scalar_model(n, seeds):
    seen = set()
    for seed in range(seeds):
        rng = random.Random(f"svss-differential-{n}-{seed}")
        # n=25 reaches the vectorised plans: split prime and matmul prime in turn.
        extra = {"prime": 1_000_003} if n == 25 and seed % 2 else {}
        params = ProtocolParams.for_parties(n, **extra)
        t, prime = params.t, params.prime
        dealer = rng.randrange(n)
        events = _PartyLogs(n)
        network = Network(params, seed=seed, sinks=[events])
        processes = network.processes
        shares = [p.create_protocol(("share",), SVSSShare.factory(dealer)) for p in processes]
        recs = [p.create_protocol(("rec",), SVSSRec.factory(dealer)) for p in processes]
        models = [
            _PartyModel(pid, dealer, n, t, prime, random.Random(f"{n}-{seed}-{pid}"))
            for pid in range(n)
        ]
        for pid in range(n):
            shares[pid].start(**({"value": rng.randrange(prime)} if pid == dealer else {}))
        models[dealer].deal(shares[dealer].secret_matrix)
        # A faulty dealer: some parties never get their row, or get junk.
        withheld = set(rng.sample(range(n), rng.choice((0, 0, 1, t))))
        junk_rate = rng.choice((0.0, 0.1, 0.3))
        # At n=25 only a few senders lie, so recovery stays decodable.
        liars = None if n < 25 else set(rng.sample(range(n), 2))
        rec_due = {}
        cursor = delivered = 0
        backlog = []
        while delivered < 40 * n * n:
            backlog.extend(events.sent[cursor:])
            cursor = len(events.sent)
            for pid, due in list(rec_due.items()):
                if delivered >= due:
                    del rec_due[pid]
                    if models[pid].rec_pending:
                        seen.add("rec-replayed")
                    recs[pid].start(share=shares[pid].output)
                    models[pid].rec_start()
            if not backlog and not rec_due:
                break
            if not backlog:
                delivered += 1
                continue
            honest = backlog.pop(rng.randrange(len(backlog)))
            roll = rng.random()
            if honest.kind == "ROW" and honest.receiver in withheld:
                if rng.random() < 0.5:
                    continue
                message = _mutated(rng, honest, n, t, prime)
            elif roll < junk_rate and (liars is None or honest.sender in liars):
                message = _mutated(rng, honest, n, t, prime)
                backlog.append(honest)
            elif roll > 0.93:
                message = honest
                backlog.append(honest)              # delivered again later
                seen.add("duplicate")
            else:
                message = honest
            delivered += 1
            pid, model = message.receiver, models[message.receiver]
            was_done = (model.share_done, model.rec_done)
            processes[pid].deliver(message)
            if message.session == ("share",):
                model.on_share(message.sender, message.payload)
            else:
                model.on_rec(message.sender, message.payload)
            where = (seed, delivered, message.sender, pid, message.session, message.payload)
            assert events.logs[pid] == model.log, where
            share, rec = shares[pid], recs[pid]
            assert set(processes[pid]._shunned_from) == model.shunned, where
            assert (share.row_ints, share.row_recovered, share.finished) == (
                model.row, model.recovered, model.share_done
            ), where
            assert (rec.finished, rec.output) == (model.rec_done, model.rec_output), where
            if model.share_done and not was_done[0]:
                rec_due[pid] = delivered + rng.choice((0, 0, rng.randrange(1, 3 * n)))
                seen.add("recovered" if model.recovered else "dealt")
            if was_done[message.session == ("rec",)]:
                seen.add("after-completion")
            if message.kind == "POINT" and model.row is None:
                seen.add("point-before-row")
            if message.kind == "ROW" and message.sender != dealer:
                seen.add("row-from-non-dealer")
            if dealer in model.shunned:
                seen.add("dealer-shunned")
            if model.shunned - {dealer}:
                seen.add("peer-shunned")
        # Whatever arrived, an honest party's own messages carry canonical
        # rows and plain ints.
        for message in events.sent:
            for part in message.payload[1:]:
                ints = part if message.kind in ("ROW", "RECROW") else (part,)
                assert type(ints) is tuple and all(type(c) is int for c in ints), message.payload
        stats = network.crypto_plane().stats
        if stats["row_hits"]:
            seen.add("row-lookup")
        if stats["row_misses"]:
            seen.add("row-first-sight")
        if stats["secret_hits"]:
            seen.add("secret-lookup")
        if stats["weight_misses"]:
            seen.add("secret-interpolated")
        if all(model.rec_done for model in models):
            seen.add("all-reconstructed")
    # At n=25 only two senders lie, and every reconstruction set seen holds
    # dealt rows only: the interpolation path is the small sizes' to cover.
    interpolated = {"secret-interpolated"} if n < 25 else set()
    assert seen == {
        "dealt", "recovered", "duplicate", "after-completion", "point-before-row",
        "row-from-non-dealer", "dealer-shunned", "peer-shunned", "rec-replayed",
        "row-lookup", "row-first-sight", "secret-lookup", "all-reconstructed",
    } | interpolated
