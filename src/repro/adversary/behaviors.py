"""Adversarial party behaviours.

A corrupted :class:`~repro.net.process.Process` delegates every delivered
message to a :class:`Behavior`.  Behaviours range from the trivial (crash:
ignore everything) to protocol-aware attacks (an equivocating SVSS dealer, a
coin-biasing participant).  Protocol-specific attacks used by the lower-bound
experiments live in ``repro.lowerbound``.

Behaviours are installed through factories so a single experiment description
can be replayed across many seeds::

    sim.corrupt(3, CrashBehavior.factory())
    sim.corrupt(2, ByzantineEchoBehavior.factory(flip=True))
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.message import Message, SessionId
from repro.net.process import Process


class Behavior:
    """Base class for adversarial behaviours."""

    #: When True, the simulation still instantiates and starts the honest
    #: root protocol at this party (the behaviour intercepts or mutates
    #: around it).  When False the corrupted party runs no honest code.
    runs_honest_protocol = False

    def __init__(self) -> None:
        self.process: Optional[Process] = None

    # ------------------------------------------------------------------
    def attach(self, process: Process) -> None:
        """Bind the behaviour to its corrupted process (called by ``corrupt``)."""
        self.process = process
        self.on_attach()

    def on_attach(self) -> None:
        """Hook called once the process is known.  Override if needed."""

    def on_message(self, message: Message) -> None:
        """Handle a message delivered to the corrupted party.  Override."""

    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        """The corrupted party's id."""
        assert self.process is not None
        return self.process.pid

    @property
    def rng(self) -> random.Random:
        """The corrupted party's randomness source."""
        assert self.process is not None
        return self.process.rng

    def send(self, receiver: int, session: SessionId, *payload: Any) -> None:
        """Send an arbitrary message in the corrupted party's name."""
        assert self.process is not None
        self.process.network.submit(self.pid, receiver, tuple(session), tuple(payload))

    def broadcast(self, session: SessionId, *payload: Any) -> None:
        """Send ``payload`` to every party under ``session``: one fan-out."""
        assert self.process is not None
        self.process.network.submit_broadcast(self.pid, tuple(session), payload)

    def send_halves(self, session: SessionId, kind: str, low: Any, high: Any) -> None:
        """Send ``(kind, low)`` to parties below ``n // 2``, ``(kind, high)`` to the rest.

        One fan-out, in the corrupted party's name like :meth:`send`.
        """
        assert self.process is not None
        n = self.process.params.n
        half = n // 2
        self.process.network.submit_fanout(
            self.pid, tuple(session), kind, [low] * half + [high] * (n - half)
        )

    # ------------------------------------------------------------------
    @classmethod
    def factory(cls, *args: Any, **kwargs: Any) -> Callable[[Process], "Behavior"]:
        """Return a ``process -> behaviour`` factory for :meth:`Simulation.corrupt`."""
        def build(_process: Process) -> "Behavior":
            return cls(*args, **kwargs)

        return build


class CrashBehavior(Behavior):
    """A crashed party: never sends anything, ignores everything.

    Equivalent to the "faulty and silent" party C used throughout the paper's
    lower-bound argument.
    """


class HardCrashBehavior(CrashBehavior):
    """A crash that also severs the party's outgoing channel.

    :class:`CrashBehavior` suffices for corruptions applied before the run
    (the honest protocol tree never starts, so nothing sends).  A party
    corrupted *mid-run* -- by an adaptive adversary or a fault timeline -- may
    still be inside a protocol action whose remaining sends would otherwise
    leak out; installing a drop-everything outgoing mutator makes the crash
    immediate and total.
    """

    def on_attach(self) -> None:
        assert self.process is not None
        self.process.outgoing_mutator = lambda receiver, session, payload: None


class SilentAfterBehavior(Behavior):
    """Runs honestly for ``active_deliveries`` messages, then crashes.

    The honest phase is approximated by echoing the original process logic:
    the behaviour forwards deliveries to the honest protocol tree until its
    budget runs out.  This models mid-protocol crash failures.
    """

    runs_honest_protocol = True

    def __init__(self, active_deliveries: int) -> None:
        super().__init__()
        self.active_deliveries = active_deliveries
        self._seen = 0

    def on_message(self, message: Message) -> None:
        assert self.process is not None
        if self._seen >= self.active_deliveries:
            return
        self._seen += 1
        # Temporarily act honestly: route through the protocol tree.
        behavior, self.process.behavior = self.process.behavior, None
        try:
            self.process.deliver(message)
        finally:
            self.process.behavior = behavior


class HonestButMutatingBehavior(Behavior):
    """Runs the honest protocol but rewrites its *outgoing* messages.

    ``mutator(receiver, session, payload)`` returns a replacement
    ``(receiver, session, payload)`` tuple, or None to drop the message.
    This captures a large family of Byzantine behaviours (wrong shares,
    flipped bits, selective silence) without re-implementing protocol logic.
    It is called once per copy, and a fan-out's surviving copies still go
    out as one fan-out (:attr:`Process.outgoing_mutator`); returning an
    unchanged payload as the same object keeps a broadcast's copies shared.
    """

    runs_honest_protocol = True

    def __init__(
        self,
        mutator: Callable[[int, SessionId, tuple], Optional[Tuple[int, SessionId, tuple]]],
    ) -> None:
        super().__init__()
        self.mutator = mutator

    def on_attach(self) -> None:
        assert self.process is not None
        self.process.outgoing_mutator = self.mutator
        # The process keeps running its honest protocol tree: clear the
        # behaviour hook for deliveries but remember the corruption flag by
        # keeping ``behavior`` set on the process (handled in on_message).

    def on_message(self, message: Message) -> None:
        assert self.process is not None
        behavior, self.process.behavior = self.process.behavior, None
        try:
            self.process.deliver(message)
        finally:
            self.process.behavior = behavior


class EquivocatingBehavior(Behavior):
    """Sends value ``value_for_low`` to the lower half of parties and
    ``value_for_high`` to the rest whenever asked to broadcast through
    ``send_split``.  Used as a building block by protocol-specific attacks;
    on its own it ignores incoming messages."""

    def __init__(self, value_for_low: Any, value_for_high: Any) -> None:
        super().__init__()
        self.value_for_low = value_for_low
        self.value_for_high = value_for_high

    def send_split(self, session: SessionId, kind: str) -> None:
        """Send ``(kind, value)`` with a different value to each half."""
        self.send_halves(session, kind, self.value_for_low, self.value_for_high)


class ReplayBehavior(Behavior):
    """Records every delivered message and replays it back to its sender.

    A simple "noise" adversary used in robustness tests: it produces
    well-formed but stale traffic.
    """

    def __init__(self, max_replays: int = 1000) -> None:
        super().__init__()
        self.max_replays = max_replays
        self._replayed = 0
        self.log: List[Message] = []

    def on_message(self, message: Message) -> None:
        self.log.append(message)
        if self._replayed < self.max_replays:
            self._replayed += 1
            self.send(message.sender, message.session, *message.payload)


class RandomNoiseBehavior(Behavior):
    """Responds to every delivery with a burst of random garbage messages.

    Exercises the honest parties' input validation: unknown message kinds and
    malformed payloads must be ignored, never crash a protocol.
    """

    def __init__(self, burst: int = 2) -> None:
        super().__init__()
        self.burst = burst

    def on_message(self, message: Message) -> None:
        assert self.process is not None
        n = self.process.params.n
        for _ in range(self.burst):
            receiver = self.rng.randrange(n)
            kind = self.rng.choice(["GARBAGE", "ECHO", "READY", "VALUE", "EST"])
            payload = (kind, self.rng.randrange(1 << 16))
            self.send(receiver, message.session, *payload)


def crash_all(pids: List[int]) -> Dict[int, Callable[[Process], Behavior]]:
    """Convenience: a corruption map crashing every party in ``pids``."""
    return {pid: CrashBehavior.factory() for pid in pids}
