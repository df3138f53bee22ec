"""Protocol-specific Byzantine attacks used by the experiments.

These behaviours target the SVSS / CoinFlip / FBA stack:

* :class:`WithholdingDealerBehavior` -- runs the protocols honestly but, when
  acting as an SVSS dealer, withholds the row of selected victims.  Attacks
  liveness: the victims must recover their rows from other parties' points
  (exercised by E7), otherwise CoinFlip would deadlock.
* :class:`BadShareBehavior` -- runs honestly but corrupts the rows it sends
  during SVSS reconstruction.  Attacks binding: the corruption is either
  detected (the sender gets shunned, at most once per victim) or harmless.
* :class:`DeterministicValueDealer` -- deals the constant bit ``0`` instead of
  a random bit in every CoinFlip iteration.  The hiding property implies this
  cannot bias the XOR of the iteration coin, which E1 verifies.
* :class:`EquivocatingACastSender` -- sends different values to different
  halves of the parties in its own A-Cast (attacks FBA validity; reliable
  broadcast must prevent honest parties from delivering different values).
* :class:`FBAValueInjector` -- honest protocol execution with a chosen input
  value, used to measure how often the adversary's value wins FBA's fair
  choice (Theorem 4.5 bounds this by 1/2).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Set, Tuple

from repro.adversary.behaviors import Behavior, HonestButMutatingBehavior
from repro.net.message import Message, SessionId


class WithholdingDealerBehavior(HonestButMutatingBehavior):
    """Honest execution, except ROW messages to ``victims`` are dropped."""

    def __init__(self, victims: Iterable[int]) -> None:
        self.victims: Set[int] = set(victims)
        super().__init__(self._mutate, kinds=("ROW",))

    def _mutate(
        self, receiver: int, session: SessionId, payload: tuple
    ) -> Optional[Tuple[int, SessionId, tuple]]:
        if receiver in self.victims:
            return None
        return receiver, session, payload


class BadShareBehavior(HonestButMutatingBehavior):
    """Honest execution, except reconstruction rows sent to ``victims`` are corrupted.

    The corrupted row still has the right degree, so it can only be caught by
    the cross-point check -- exactly the check that triggers shunning.
    """

    def __init__(self, victims: Optional[Iterable[int]] = None, offset: int = 1) -> None:
        self.victims: Optional[Set[int]] = set(victims) if victims is not None else None
        self.offset = offset
        super().__init__(self._mutate, kinds=("RECROW",))

    def _mutate(
        self, receiver: int, session: SessionId, payload: tuple
    ) -> Optional[Tuple[int, SessionId, tuple]]:
        if self.victims is None or receiver in self.victims:
            coefficients = list(payload[1])
            if coefficients:
                coefficients[0] = coefficients[0] + self.offset
            return receiver, session, ("RECROW", tuple(coefficients))
        return receiver, session, payload


class PointCorruptingBehavior(HonestButMutatingBehavior):
    """Honest execution, except cross-check POINT values are perturbed.

    During the share phase this prevents the adversary from counting towards
    other parties' consistency quorums; honest protocols must still terminate
    because ``n - t`` honest parties suffice.
    """

    def __init__(self, offset: int = 1) -> None:
        self.offset = offset
        super().__init__(self._mutate, kinds=("POINT",))

    def _mutate(
        self, receiver: int, session: SessionId, payload: tuple
    ) -> Optional[Tuple[int, SessionId, tuple]]:
        if isinstance(payload[1], int):
            return receiver, session, ("POINT", payload[1] + self.offset)
        return receiver, session, payload


class DeterministicValueDealer(HonestButMutatingBehavior):
    """Runs honestly but its own random bits are all forced to ``value``.

    Implemented by rigging the party's randomness source rather than its
    messages: every ``randrange(2)`` call returns ``value``.  Secret-sharing
    polynomials remain random, so the SVSS layer still functions; only the
    dealt coin bits are biased.
    """

    def __init__(self, value: int = 0) -> None:
        self.value = 1 if value else 0
        super().__init__(None)

    def on_attach(self) -> None:
        super().on_attach()
        assert self.process is not None
        original = self.process.rng.randrange
        forced = self.value

        def rigged_randrange(start: int, stop: Optional[int] = None, step: int = 1) -> int:
            if stop is None and start == 2:
                return forced
            if stop is None:
                return original(start)
            return original(start, stop, step)

        self.process.rng.randrange = rigged_randrange  # type: ignore[method-assign]


class SplitBrainEquivocator(HonestButMutatingBehavior):
    """Runs honestly but perturbs integer payload fields sent to half the parties.

    Receivers with ``pid >= n // 2`` see every trailing integer payload field
    offset by ``offset`` (the message kind tag is preserved); the low half
    sees honest traffic.  This is the generic "tell the two halves different
    stories" equivocation used by the scenario engine's ``equivocate`` fault
    transition: it attacks whatever consistency checks the protocol under
    test runs (SVSS cross-points, BVAL/AUX vote counting, echo quorums)
    without protocol-specific knowledge.
    """

    def __init__(self, offset: int = 1, kinds: Optional[Iterable[str]] = None) -> None:
        self.offset = offset
        super().__init__(self._mutate, kinds)

    def _mutate(
        self, receiver: int, session: SessionId, payload: tuple
    ) -> Optional[Tuple[int, SessionId, tuple]]:
        assert self.process is not None
        if receiver < self.process.params.n // 2 or not payload:
            return receiver, session, payload
        fields = payload[1:]
        mutated = tuple(
            value + self.offset if isinstance(value, int) and not isinstance(value, bool) else value
            for value in fields
        )
        if all(new is old for new, old in zip(mutated, fields)):
            # Nothing perturbed (a bare tag such as READY): the payload
            # itself, so a broadcast's copies still share one object.
            return receiver, session, payload
        return receiver, session, (payload[0],) + mutated


class EquivocatingACastSender(Behavior):
    """A faulty A-Cast sender that sends ``value_low`` to low-numbered parties
    and ``value_high`` to the rest, then follows the protocol's echo rules
    selectively.  Reliable broadcast must ensure honest parties never deliver
    different values (they may deliver nothing)."""

    def __init__(self, session: SessionId, value_low: Any, value_high: Any) -> None:
        super().__init__()
        self.session = tuple(session)
        self.value_low = value_low
        self.value_high = value_high
        self._sent = False

    def on_attach(self) -> None:
        self.send_halves(self.session, "VALUE", self.value_low, self.value_high)
        self._sent = True

    def on_message(self, message: Message) -> None:
        # Stay silent for the rest of the execution (a crash after
        # equivocating); the echo phase is driven by honest parties.
        return


class FBAValueInjector(HonestButMutatingBehavior):
    """Runs FBA honestly but with a fixed adversarial input value.

    Used by E5: with honest inputs diverging, the adversary wants its own value
    chosen; Theorem 4.5 says honest inputs still win with probability >= 1/2.
    """

    def __init__(self, value: Any) -> None:
        self.value = value
        super().__init__(None)

    def on_attach(self) -> None:
        super().on_attach()
        # The injected input is supplied through the simulation inputs map;
        # this behaviour exists so the corrupted party still runs the honest
        # code path (runs_honest_protocol is True) with the chosen value.


def corrupt_map(
    pids: Sequence[int], behavior_factory
) -> dict:
    """Convenience: the same behaviour factory for every party in ``pids``."""
    return {pid: behavior_factory for pid in pids}
