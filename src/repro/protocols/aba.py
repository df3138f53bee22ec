"""Almost-surely terminating binary asynchronous Byzantine agreement.

The paper uses (Definition 3.3) a binary BA protocol with Termination,
Validity and Correctness, citing Abraham-Dolev-Halpern [2] for an
almost-surely terminating construction with polynomial expected round count.
We implement the standard common-coin-based binary ABA (the
Mostefaoui-Moumen-Raynal structure: BVAL / AUX / coin rounds), parameterised
by a *coin source*:

* :class:`OracleCoinSource` -- a perfect common coin derived from a seed
  shared by all parties.  This is the default for simulations: the BA
  substrate is assumed by the paper, and the oracle keeps runs fast while
  exercising all agreement logic.
* :class:`LocalCoinSource` -- each party flips its own coin (Ben-Or '83
  style); almost-surely terminating but with exponential expected time.
  Used as a baseline in the substrate benchmarks.
* :class:`ProtocolCoinSource` -- runs a real coin protocol (for example the
  SVSS-based weak coin, or the paper's own CoinFlip) as a sub-protocol per
  round: the fully information-theoretic stack.

Safety (validity and agreement) never depends on the coin; only expected
round count does.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.message import SessionId
from repro.net.process import Process
from repro.net.protocol import Protocol


class CoinSource(ABC):
    """Provides the per-round common coin used by :class:`BinaryAgreement`."""

    @abstractmethod
    def immediate(self, protocol: Protocol, round_index: int) -> Optional[int]:
        """Return the coin for ``round_index`` if available without interaction."""

    def protocol_factory(
        self, protocol: Protocol, round_index: int
    ) -> Callable[[Process, SessionId], Protocol]:
        """Factory for a coin sub-protocol (used when :meth:`immediate` is None)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a protocol-based coin"
        )


class OracleCoinSource(CoinSource):
    """A perfect common coin: identical, unbiased and unpredictable-enough bits
    derived from ``(seed, session, round)``.  All parties share the source, so
    they observe the same coin value -- the ideal functionality assumed of the
    BA substrate.  For the same reason all ``n`` parties ask for the same bit:
    it is hashed once per ``(session, round)`` and remembered on the source."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._bits: Dict[Tuple[SessionId, int], int] = {}

    def immediate(self, protocol: Protocol, round_index: int) -> Optional[int]:
        key = (protocol.session, round_index)
        bit = self._bits.get(key)
        if bit is None:
            digest = hashlib.sha256(
                repr((self.seed, tuple(protocol.session), round_index)).encode()
            ).digest()
            bit = self._bits[key] = digest[0] & 1
        return bit


class LocalCoinSource(CoinSource):
    """Each party flips an independent local coin (Ben-Or style)."""

    def immediate(self, protocol: Protocol, round_index: int) -> Optional[int]:
        return protocol.rng.randrange(2)


class ProtocolCoinSource(CoinSource):
    """Runs ``coin_factory()`` as a sub-protocol for every round's coin.

    The sub-protocol must complete with an integer output; its parity is the
    coin.  Example: ``ProtocolCoinSource(WeakCommonCoin.factory)``.
    """

    def __init__(
        self, coin_factory: Callable[[], Callable[[Process, SessionId], Protocol]]
    ) -> None:
        self.coin_factory = coin_factory

    def immediate(self, protocol: Protocol, round_index: int) -> Optional[int]:
        return None

    def protocol_factory(
        self, protocol: Protocol, round_index: int
    ) -> Callable[[Process, SessionId], Protocol]:
        return self.coin_factory()


class _RoundVotes:
    """One round's votes (and coin) at one party: ints and bools only.

    Who voted is a *bitmask* (bit ``1 << sender``) with a running count
    beside it, not a set of senders.  A duplicate is one ``&``, a quorum test
    reads a counter, and a record owns no container: nothing here is a
    separate allocation, and nothing is left for the cyclic collector to
    walk (a trial used to end with three live sets per round per party).
    The masks rely on the sender being an authenticated party id in
    ``0..n-1`` -- see :class:`BinaryAgreement`.
    """

    __slots__ = (
        "bval_sent0",
        "bval_sent1",
        "bval_mask0",
        "bval_mask1",
        "bval_count0",
        "bval_count1",
        "bin0",
        "bin1",
        "aux_sent",
        "aux_mask",
        "aux_count0",
        "aux_count1",
        "coin",
        "coin_requested",
    )

    def __init__(self) -> None:
        #: Whether this party already broadcast BVAL(value) for the round.
        self.bval_sent0 = False
        self.bval_sent1 = False
        #: Senders supporting each BVAL value, and how many they are.
        self.bval_mask0 = 0
        self.bval_mask1 = 0
        self.bval_count0 = 0
        self.bval_count1 = 0
        #: Whether each value entered bin_values (an n - t BVAL quorum).
        self.bin0 = False
        self.bin1 = False
        #: Whether this party already broadcast its AUX vote.
        self.aux_sent = False
        #: Senders whose AUX vote was recorded (first vote wins), and the
        #: per-value counts of those votes.
        self.aux_mask = 0
        self.aux_count0 = 0
        self.aux_count1 = 0
        #: The round's common coin once known, and whether it was asked for.
        self.coin: Optional[int] = None
        self.coin_requested = False


class BinaryAgreement(Protocol):
    """Binary asynchronous Byzantine agreement (Definition 3.3).

    Start kwargs:
        value: this party's binary input.

    Output: the agreed bit.

    The protocol keeps participating after deciding so that slower parties can
    still terminate, as the paper requires of all its sub-protocols.

    All vote state is sender bitmasks plus counters (:class:`_RoundVotes`, and
    the DONE tallies here), and one message is handled in one frame:
    :meth:`on_message` validates, records the vote in the round's record and
    -- only for a message of the current round -- calls :meth:`_advance` with
    that record.  *Precondition*: ``sender`` is the party id the network
    authenticated, an int in ``0..n-1``; that is what :class:`Process` hands
    every handler, and what makes ``1 << sender`` a valid, bounded bit.
    Payload fields, by contrast, are untrusted and validated here.
    """

    __slots__ = (
        "coin_source",
        "est",
        "round",
        "decided",
        "halted",
        "_rounds",
        "_votes",
        "_done_mask0",
        "_done_mask1",
        "_done_count0",
        "_done_count1",
        "_t1",
        "_quorum",
    )

    def __init__(
        self, process: Process, session: SessionId, coin_source: CoinSource
    ) -> None:
        super().__init__(process, session)
        self.coin_source = coin_source
        self.est: Optional[int] = None
        self.round = 0
        self.decided: Optional[int] = None
        #: The record of the current round, also reachable as
        #: ``_rounds[round]``: the per-message path reads it from here.
        self._votes = _RoundVotes()
        #: round -> vote record, for every round a message or this party
        #: touched (messages run ahead of and behind the local round).
        self._rounds: Dict[int, _RoundVotes] = {0: self._votes}
        #: Senders of DONE(value), and how many they are.
        self._done_mask0 = 0
        self._done_mask1 = 0
        self._done_count0 = 0
        self._done_count1 = 0
        self.halted = False
        # Quorum thresholds, hoisted off the per-message paths.
        self._t1 = self.t + 1
        self._quorum = self.n - self.t

    @classmethod
    def factory(
        cls, coin_source: CoinSource
    ) -> Callable[[Process, SessionId], "BinaryAgreement"]:
        """Protocol factory fixing the coin source."""
        def build(process: Process, session: SessionId) -> "BinaryAgreement":
            return cls(process, session, coin_source)

        return build

    # ------------------------------------------------------------------
    def on_start(self, value: Any = 0, **_: Any) -> None:
        self.est = 1 if value else 0
        # Messages (and even whole thresholds) may have been buffered and
        # replayed before start -- for example when this party joins a
        # CommonSubset BA late.  Re-evaluate progress immediately.
        self._advance(self._enter_round(0))

    def on_message(self, sender: int, payload: tuple) -> None:
        # Dispatch ordered by message frequency (BVAL > AUX > DONE).
        if not payload:
            return
        kind = payload[0]
        if kind == "BVAL":
            is_bval = True
        elif kind == "AUX":
            is_bval = False
        else:
            if kind == "DONE" and len(payload) == 2:
                self._on_done(sender, payload[1])
            return
        if self.halted or len(payload) != 3:
            return
        round_index = payload[1]
        value = payload[2]
        if not (isinstance(round_index, int) and round_index >= 0 and value in (0, 1)):
            return
        current = round_index == self.round
        votes = self._votes if current else self._round(round_index)
        bit = 1 << sender
        if is_bval:
            # A repeated BVAL changes nothing; a new one may cross t + 1
            # (amplification: at least one honest party proposed the value, so
            # echo it -- as the canonical int, whatever object the sender
            # used) and n - t (the value enters bin_values).
            if value == 0:
                if votes.bval_mask0 & bit:
                    return
                votes.bval_mask0 |= bit
                votes.bval_count0 = count = votes.bval_count0 + 1
                if count >= self._t1 and not votes.bval_sent0:
                    votes.bval_sent0 = True
                    self.broadcast("BVAL", int(round_index), 0)
                if count < self._quorum or votes.bin0:
                    return
                votes.bin0 = True
            else:
                if votes.bval_mask1 & bit:
                    return
                votes.bval_mask1 |= bit
                votes.bval_count1 = count = votes.bval_count1 + 1
                if count >= self._t1 and not votes.bval_sent1:
                    votes.bval_sent1 = True
                    self.broadcast("BVAL", int(round_index), 1)
                if count < self._quorum or votes.bin1:
                    return
                votes.bin1 = True
        elif not votes.aux_mask & bit:
            # First AUX vote of a sender wins; later ones are not counted.
            votes.aux_mask |= bit
            if value == 0:
                votes.aux_count0 += 1
            else:
                votes.aux_count1 += 1
        if current:
            self._advance(votes)

    def on_child_complete(self, child: Protocol) -> None:
        # Protocol-based coins complete here; the child key is ("coin", round).
        key = child.spawn_key
        if key[0] == "coin":
            round_index = key[1]
            votes = self._round(round_index)
            votes.coin = int(child.output) & 1
            if round_index == self.round:
                self._advance(votes)

    # ------------------------------------------------------------------
    def _round(self, round_index: int) -> _RoundVotes:
        votes = self._rounds.get(round_index)
        if votes is None:
            votes = self._rounds[round_index] = _RoundVotes()
        return votes

    def _advance(self, votes: _RoundVotes) -> None:
        """Take the current round -- ``votes`` is its record -- as far as it goes.

        Per round: send AUX once a value is in bin_values; wait for n - t
        accepted AUX votes (a vote is accepted once its value is in
        bin_values); get the coin; adopt the new estimate, deciding when the
        single accepted value equals the coin; enter the next round, whose
        messages may already be here -- hence the loop.
        """
        if self.est is None:
            return
        quorum = self._quorum
        while True:
            if not votes.aux_sent:
                if not (votes.bin0 or votes.bin1):
                    return
                votes.aux_sent = True
                self.broadcast("AUX", self.round, 0 if votes.bin0 else 1)
            accepted0 = votes.bin0 and votes.aux_count0 > 0
            accepted1 = votes.bin1 and votes.aux_count1 > 0
            total = (votes.aux_count0 if accepted0 else 0) + (
                votes.aux_count1 if accepted1 else 0
            )
            if total < quorum:
                return
            coin = votes.coin
            if coin is None:
                if votes.coin_requested:
                    return
                votes.coin_requested = True
                round_index = self.round
                self._request_coin(round_index, votes)
                if self.round != round_index:
                    # A coin sub-protocol that completed inside spawn()
                    # re-entered through on_child_complete and has already
                    # taken this round (and maybe later ones) to the end.
                    return
                coin = votes.coin
                if coin is None:
                    return
            if accepted0 != accepted1:
                self.est = est = 0 if accepted0 else 1
                if est == coin and self.decided is None:
                    self._decide(est)
            else:
                # Both values accepted (total >= quorum rules out neither).
                self.est = coin
            if self.halted:
                return
            votes = self._enter_round(self.round + 1)

    def _enter_round(self, round_index: int) -> _RoundVotes:
        """Make ``round_index`` current and propose the estimate in it."""
        self.round = round_index
        self._votes = votes = self._round(round_index)
        self.annotate_phase(f"round-{round_index}")
        # Amplification may already have sent this BVAL.
        if self.est == 0:
            if not votes.bval_sent0:
                votes.bval_sent0 = True
                self.broadcast("BVAL", round_index, 0)
        elif not votes.bval_sent1:
            votes.bval_sent1 = True
            self.broadcast("BVAL", round_index, 1)
        return votes

    # ------------------------------------------------------------------
    # Termination convergence: a decided party announces DONE; t+1 DONE
    # announcements for a value let any party adopt it (at least one honest
    # party decided it), and n-t announcements let a party halt outright.
    # This keeps the "continue participating so laggards terminate" guarantee
    # without running coin rounds forever.
    # ------------------------------------------------------------------
    def _decide(self, value: int) -> None:
        """Decide ``value``; callers have checked that nothing is decided yet."""
        self.decided = value
        self.broadcast("DONE", value)
        self.complete(value)

    def _on_done(self, sender: int, value: Any) -> None:
        if value not in (0, 1):
            return
        bit = 1 << sender
        # ``value`` may be any object equal to 0 or 1 (True, 1.0); what is
        # decided and re-announced is the plain int.
        if value == 0:
            if not self._done_mask0 & bit:
                self._done_mask0 |= bit
                self._done_count0 += 1
            count, value = self._done_count0, 0
        else:
            if not self._done_mask1 & bit:
                self._done_mask1 |= bit
                self._done_count1 += 1
            count, value = self._done_count1, 1
        if count >= self._t1 and self.decided is None:
            self._decide(value)
        if count >= self._quorum and self.decided == value:
            self.halted = True

    def _request_coin(self, round_index: int, votes: _RoundVotes) -> None:
        bit = self.coin_source.immediate(self, round_index)
        if bit is not None:
            votes.coin = bit
            return
        factory = self.coin_source.protocol_factory(self, round_index)
        self.spawn(("coin", round_index), factory)
