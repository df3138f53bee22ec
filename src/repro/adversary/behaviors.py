"""Adversarial party behaviours.

A corrupted :class:`~repro.net.process.Process` delegates every delivered
message to a :class:`Behavior` -- unless the behaviour runs the honest
protocol and leaves deliveries alone (:meth:`Behavior.delivery_hook`), in
which case the party's deliveries take the honest route and the behaviour
acts on what it sends.  Behaviours range from the trivial (crash: ignore
everything) to protocol-aware attacks (an equivocating SVSS dealer, a
coin-biasing participant).  Protocol-specific attacks used by the lower-bound
experiments live in ``repro.lowerbound``.

Behaviours are installed through factories so a single experiment description
can be replayed across many seeds::

    sim.corrupt(3, CrashBehavior.factory())
    sim.corrupt(2, ByzantineEchoBehavior.factory(flip=True))
"""

from __future__ import annotations

import inspect
import random
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

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

    def delivery_hook(self) -> Optional[Callable[[Message], None]]:
        """What the corrupted process hands each delivery to (see ``Process.corrupt``).

        :meth:`on_message`, or None -- the honest route -- for a behaviour
        that runs the honest protocol and does not override it.
        """
        if self.runs_honest_protocol and type(self).on_message is Behavior.on_message:
            return None
        return self.on_message

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
        """Return a ``process -> behaviour`` factory for :meth:`Simulation.corrupt`.

        Arguments the constructor cannot take raise TypeError here, when the
        factory is built (campaign validation), not when a trial corrupts
        its party.
        """
        inspect.signature(cls).bind(*args, **kwargs)

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
        self.process.set_outgoing_mutator(lambda receiver, session, payload: None)


class SilentAfterBehavior(Behavior):
    """Runs honestly for ``active_deliveries`` messages, then crashes.

    The honest phase is approximated by echoing the original process logic:
    the behaviour hands deliveries to the process's honest route until its
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
        self.process.route(
            message.sender, message.session, message.payload, message, message.receiver
        )


class HonestButMutatingBehavior(Behavior):
    """Runs the honest protocol but rewrites its *outgoing* messages.

    ``mutator(receiver, session, payload)`` returns a replacement
    ``(receiver, session, payload)`` tuple, or None to drop the message.
    This captures a large family of Byzantine behaviours (wrong shares,
    flipped bits, selective silence) without re-implementing protocol logic.
    ``kinds``, when given, declares the only message kinds the mutator is
    shown: a send of any other kind, lone or fan-out, goes out as an honest
    party's would, without a call.  Every other send calls it once per copy,
    and a fan-out's surviving copies still go out as one fan-out
    (:attr:`Process.outgoing_mutator`); returning an unchanged payload as
    the same object keeps a broadcast's copies shared.  ``mutator=None``
    sends unmutated (a behaviour that rigs something other than messages);
    either way attaching replaces whatever mutator the party had.

    Deliveries take the honest route: the class does not override
    :meth:`Behavior.on_message`, so the process installs no delivery hook.
    """

    runs_honest_protocol = True

    def __init__(
        self,
        mutator: Optional[
            Callable[[int, SessionId, tuple], Optional[Tuple[int, SessionId, tuple]]]
        ],
        kinds: Optional[Iterable[Any]] = None,
    ) -> None:
        super().__init__()
        self.mutator = mutator
        self.kinds: Optional[FrozenSet[Any]] = None if kinds is None else frozenset(kinds)

    def on_attach(self) -> None:
        assert self.process is not None
        self.process.set_outgoing_mutator(self.mutator, self.kinds)


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
