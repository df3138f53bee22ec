"""Process: one simulated party hosting a tree of protocol instances.

The process routes incoming messages to protocol instances by session id,
buffers messages for sessions that have not been created yet (a constant
occurrence in asynchronous protocols, where parties start sub-protocols at
different times), applies the shunning rule, and exposes the sending path to
its protocols.

A process may be *corrupted* by installing a behaviour object (see
``repro.adversary.behaviors``).  A behaviour that intercepts deliveries
becomes the process's delivery hook; one that runs the honest protocol and
leaves deliveries alone (it only mutates what the party sends) installs no
hook, so its deliveries take the honest route like any other party's.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, TYPE_CHECKING

from repro.core.config import ProtocolParams
from repro.net.message import Message, SessionId
from repro.net.protocol import Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.adversary.behaviors import Behavior
    from repro.net.network import Network


class Process:
    """One party of the distributed system."""

    __slots__ = (
        "pid",
        "params",
        "network",
        "_rng_seed",
        "_rng",
        "protocols",
        "_protocols_get",
        "_pending",
        "_shunned_from",
        "_shun_floor",
        "_creation_counter",
        "behavior",
        "deliver_hook",
        "_outgoing_mutator",
        "_mutated_kinds",
        "send_fanout",
        "ever_corrupted",
        "_retired",
    )

    def __init__(
        self,
        pid: int,
        params: ProtocolParams,
        network: "Network",
        rng_seed: int,
    ) -> None:
        self.pid = pid
        self.params = params
        self.network = network
        #: Seed of this party's private random source, which is built on its
        #: first draw (:attr:`rng`): most parties of a trial never draw.
        self._rng_seed = rng_seed
        self._rng: Optional[random.Random] = None
        self.protocols: Dict[SessionId, Protocol] = {}
        #: Bound ``protocols.get``, cached for the per-delivery routing lookup.
        self._protocols_get = self.protocols.get
        #: session -> what arrived before the session's instance started, in
        #: the shape the queue holds it: ``(entry, receiver)``, the copy of a
        #: fan-out entry or a lone Message.  Kept whole (not just sender and
        #: payload) so a copy dropped at replay can be reported like any
        #: other drop.
        self._pending: Dict[SessionId, List[Any]] = {}
        #: party id -> creation index after which its messages are ignored.
        self._shunned_from: Dict[int, int] = {}
        #: Creation index of the first shun: no sender is shunned for an
        #: instance born below it.  Read only while ``_shunned_from`` is set.
        self._shun_floor = 0
        self._creation_counter = 0
        #: Optional adversarial behaviour; None means honest.  Set from
        #: :meth:`corrupt` until :meth:`reinitialize`, nowhere else.
        self.behavior: Optional["Behavior"] = None
        #: What a delivery is handed to instead of the honest route (the
        #: materialised Message); None for an honest party and for a
        #: behaviour that runs the honest protocol and leaves deliveries
        #: alone (see :meth:`corrupt`).
        self.deliver_hook: Optional[Callable[[Message], None]] = None
        #: Sticky corruption flag: once the adversary has controlled this
        #: party it stays attributed to the adversary for budget and
        #: honest-output accounting, even after a scenario ``restart``
        #: returns it to running honest code (restart refunds nothing).
        self.ever_corrupted = False
        #: Protocol tables a restart discarded (see :meth:`reinitialize`),
        #: kept so that :meth:`release` unlinks those trees too.
        self._retired: tuple = ()
        # Also binds ``send_fanout``.
        self.set_outgoing_mutator(None)

    @property
    def rng(self) -> random.Random:
        """This party's private random source, seeded on its first draw."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_seed)
        return rng

    # ------------------------------------------------------------------
    # The outgoing mutator.
    # ------------------------------------------------------------------
    @property
    def outgoing_mutator(
        self,
    ) -> Optional[Callable[[int, SessionId, tuple], Optional[tuple]]]:
        """Optional hook rewriting what this party sends; None means unmutated.

        ``mutator(receiver, session, payload)`` returns the ``(receiver,
        session, payload)`` to send instead, or None to drop the message.
        Used by honest-but-mutating adversaries; installed with
        :meth:`set_outgoing_mutator`, together with the message kinds it can
        touch (:attr:`outgoing_kinds`).

        A send of any other kind -- a fan-out (:attr:`send_fanout`) or a
        lone send (:meth:`send`) alike -- never reaches the mutator: it is
        submitted as the very entry an honest sender would submit.  A lone
        send of a declared kind calls it once.  A fan-out of a declared kind
        calls it once per receiver in pid order, ``skip`` left out, with the
        payload that copy carries.  The copies it leaves standing are then
        submitted as one :class:`~repro.net.queues.SurvivorsEntry` -- unless
        it readdressed one (changed its receiver or session), in which case
        every survivor of that fan-out is submitted as a lone send, in pid
        order, after the last call.  Either way the sequence numbers are
        those of a per-receiver submit loop.
        """
        return self._outgoing_mutator

    @property
    def outgoing_kinds(self) -> Optional[FrozenSet[Any]]:
        """The message kinds the outgoing mutator can touch; None means any."""
        return self._mutated_kinds

    def set_outgoing_mutator(
        self,
        mutator: Optional[Callable[[int, SessionId, tuple], Optional[tuple]]],
        kinds: Optional[Iterable[Any]] = None,
    ) -> None:
        """Install ``mutator`` (None: send unmutated) and the kinds it can touch.

        ``kinds`` None (the default) declares every kind, so every send is
        shown to the mutator.  Also rebinds :attr:`send_fanout`:
        ``Network._submit_fanout`` itself when ``mutator`` is None,
        :meth:`_send_mutated_fanout` otherwise.
        """
        self._outgoing_mutator = mutator
        self._mutated_kinds = None if kinds is None else frozenset(kinds)
        #: ``send_fanout(sender, session, kind, payload, values, skip)``: the
        #: one send path of a fan-out, ``payload`` shared or ``(kind,
        #: values[r])`` for each receiver ``r`` but ``skip``.  An unmutated
        #: party's is the network's own submit (no frame of its own).
        self.send_fanout = (
            self.network._submit_fanout if mutator is None else self._send_mutated_fanout
        )

    # ------------------------------------------------------------------
    # Corruption.
    # ------------------------------------------------------------------
    @property
    def is_corrupted(self) -> bool:
        """True from :meth:`corrupt` until :meth:`reinitialize` (its own deliveries included)."""
        return self.behavior is not None

    def corrupt(self, behavior: "Behavior") -> None:
        """Install ``behavior``; the process is the adversary's from now on.

        The delivery hook is derived here: the behaviour's ``on_message``,
        except for a behaviour that runs the honest protocol
        (``runs_honest_protocol``) and does not override ``on_message`` --
        its deliveries take the honest route, the loop's direct one included.
        """
        # Register with the network first: completion counters must treat any
        # activity during ``attach`` (behaviours may send immediately) as
        # adversarial, and any completions this party already contributed
        # must be retracted.
        self.network.register_corruption(self)
        self.ever_corrupted = True
        self.behavior = behavior
        self.deliver_hook = behavior.delivery_hook()
        behavior.attach(self)
        self.network.trace.on_corrupt(self.network.step_count, self.pid)

    def reinitialize(self) -> None:
        """Rejoin with fresh protocol state (the scenario ``restart`` path).

        Drops the adversarial behaviour and its delivery hook, the outgoing
        mutator, the entire protocol tree, buffered messages and shun state
        (the shun floor too): the party comes back
        indistinguishable from a freshly constructed honest process (its RNG
        stream continues -- a restarted party does not rewind randomness).
        The discarded tree is kept aside, unreachable by routing, for
        :meth:`release`.
        ``ever_corrupted`` stays set: the adversary paid for this party and a
        restart refunds nothing, so completions and outputs remain excluded
        from the honest accounting.
        """
        self.behavior = None
        self.deliver_hook = None
        self.set_outgoing_mutator(None)
        self._retired += (self.protocols,)
        self.protocols = {}
        self._protocols_get = self.protocols.get
        self._pending = {}
        self._shunned_from = {}
        self._shun_floor = 0
        self._creation_counter = 0

    def release(self) -> None:
        """Break this party's reference cycles; it cannot run again.

        :meth:`reinitialize` drops the behaviour, its hook and the mutator
        and retires the protocol tree; every retired tree's instances are
        then unhooked from their parents (the only edge back up a tree) and
        the party lets go of its network.  Nothing the party owns then sits
        on a cycle, so reference counting frees it with the last reference
        to its world.  Idempotent.
        """
        if self.network is None:
            return
        self.reinitialize()
        for table in self._retired:
            for instance in table.values():
                instance.parent = None
        self._retired = ()
        self.network = self.send_fanout = None

    # ------------------------------------------------------------------
    # Protocol management.
    # ------------------------------------------------------------------
    def create_protocol(
        self,
        session: SessionId,
        factory: Callable[["Process", SessionId], Protocol],
    ) -> Protocol:
        """Create the protocol instance for ``session`` (or return the existing one).

        Messages buffered for the session stay buffered until the instance is
        *started* (see :meth:`flush_pending`): protocols must never observe
        traffic before their ``on_start`` has initialised their state.
        """
        session = self.network.intern_session(session)
        existing = self.protocols.get(session)
        if existing is not None:
            return existing
        instance = factory(self, session)
        instance.birth_index = self._creation_counter
        self._creation_counter += 1
        self.protocols[session] = instance
        network = self.network
        network.trace.on_session_open(network.step_count, self.pid, session)
        director = network.director
        if director is not None:
            # Scenario hook: adaptive adversaries may corrupt this party (or
            # others) the moment a session opens, before the instance starts.
            director.on_session_open(self.pid, session)
        return instance

    def flush_pending(self, instance: Protocol) -> None:
        """Deliver messages buffered for ``instance`` (called right after start).

        The shun rule applies here as it does to a live delivery: a buffered
        message from a party shunned before ``instance`` was created is
        dropped, and counted as a ``"shunned"`` drop.
        """
        buffered = self._pending.pop(instance.session, None)
        if not buffered:
            return
        on_message = instance.on_message
        for entry, receiver in buffered:
            if self._shunned_from and self._is_shunned_for(entry.sender, instance):
                self._drop_shunned(entry, receiver)
                continue
            values = entry.values
            on_message(
                entry.sender,
                entry.payload if values is None else (entry.kind, values[receiver]),
            )

    def protocol(self, session: SessionId) -> Optional[Protocol]:
        """Return the protocol instance for ``session`` if it exists."""
        return self.protocols.get(tuple(session))

    # ------------------------------------------------------------------
    # Sending / receiving.
    # ------------------------------------------------------------------
    def send(self, receiver: int, session: SessionId, payload: tuple) -> None:
        """Send one message; applies the outgoing mutator to a declared kind.

        ``session`` and ``payload`` must already be tuples (every in-tree
        caller passes the protocol's interned session and a packed payload
        tuple), so the hot path makes no defensive copies.  Mutator results
        are re-normalised since mutators may return arbitrary sequences.
        """
        mutator = self._outgoing_mutator
        if mutator is not None:
            kinds = self._mutated_kinds
            if kinds is None or (payload[0] if payload else None) in kinds:
                mutated = mutator(receiver, tuple(session), payload)
                if mutated is None:
                    return
                receiver, session, payload = mutated
                session = tuple(session)
                payload = tuple(payload)
        self.network.submit(self.pid, receiver, session, payload)

    def _send_mutated_fanout(
        self,
        sender: int,
        session: SessionId,
        kind: Any,
        payload: Optional[tuple],
        values: Optional[List],
        skip: Optional[int],
    ) -> None:
        """:attr:`send_fanout` through the outgoing mutator (see its docstring).

        A fan-out of a kind the mutator does not declare is submitted
        unmutated, as one :class:`~repro.net.queues.FanoutEntry`.  Otherwise the
        survivors share one entry in one of two forms: ``payload`` when
        the mutator handed every survivor the identical object, ``(kind,
        values[r])`` when every survivor is a pair of one identical ``kind``.
        Payloads are never merged by equality (``(5.0, 7.0) == (5, 7)``), so
        any other mix goes out as lone sends, as does a readdressed fan-out.
        """
        network = self.network
        kinds = self._mutated_kinds
        if kinds is not None and kind not in kinds:
            network._submit_fanout(sender, session, kind, payload, values, skip)
            return
        mutator = self._outgoing_mutator
        receivers = []
        sends = []
        readdressed = False
        for receiver in range(self.params.n):
            if receiver == skip:
                continue
            mutated = mutator(
                receiver, session, payload if values is None else (kind, values[receiver])
            )
            if mutated is None:
                continue
            to, at, out = mutated
            at = tuple(at)
            receivers.append(receiver)
            sends.append((to, at, tuple(out)))
            if to != receiver or at != session:
                readdressed = True
        if not sends:
            return
        if not readdressed:
            receivers = tuple(receivers)
            first = sends[0][2]
            if all(out is first for _, _, out in sends):
                network._submit_survivors(
                    sender, session, first[0] if first else None, first, None, receivers
                )
                return
            if len(first) == 2:
                tag = first[0]
                if all(len(out) == 2 and out[0] is tag for _, _, out in sends):
                    network._submit_survivors(
                        sender, session, tag, None,
                        {receiver: out[1] for receiver, (_, _, out) in zip(receivers, sends)},
                        receivers,
                    )
                    return
        for to, at, out in sends:
            network.submit(sender, to, at, out)

    def deliver(self, message: Message) -> None:
        """Handle a message delivered to this party: its one-copy fan-out."""
        self.deliver_parts(
            message.sender, message.session, message.payload, message, message.receiver
        )

    def deliver_parts(self, sender: int, session, payload: tuple, entry, receiver: int) -> None:
        """Deliver one unmaterialised copy: the whole routing contract.

        ``entry`` is the fan-out entry holding the copy for ``receiver``, or
        a lone Message (its own one copy); ``sender``, ``session`` and
        ``payload`` are that copy's.  A delivery hook (:attr:`deliver_hook`)
        gets the copy materialised; every other copy takes the honest route,
        :meth:`route`.  The unmaterialised delivery loop resolves the most
        common case of that route itself -- no hook, a started instance,
        and no sender shunned for it -- and calls this for the rest, so
        nothing may be decided there that is not decided here.
        """
        hook = self.deliver_hook
        if hook is not None:
            hook(entry.materialize(receiver))
            return
        self.route(sender, session, payload, entry, receiver)

    def route(self, sender: int, session, payload: tuple, entry, receiver: int) -> None:
        """The honest route of one copy (arguments as :meth:`deliver_parts`).

        Buffered while the session's instance has not started, dropped when
        the sender is shunned for that instance, else handled by it.  The
        Message object is only built for the trace argument of a shun drop.
        A behaviour that runs the honest protocol for some deliveries only
        hands those here from its hook.
        """
        instance = self._protocols_get(session)
        if instance is None or not instance.started:
            self._pending.setdefault(session, []).append((entry, receiver))
            return
        # Shun check inlined (most runs never shun anyone; skip the dict
        # probe entirely while the shun map is empty).
        shunned = self._shunned_from
        if shunned:
            threshold = shunned.get(sender)
            if threshold is not None and instance.birth_index >= threshold:
                self._drop_shunned(entry, receiver)
                return
        instance.on_message(sender, payload)

    def _drop_shunned(self, entry, receiver: int) -> None:
        """Report one message dropped because its sender is shunned.

        ``entry`` holds the copy for ``receiver`` (a lone Message is its own
        copy); the trace materialises that copy only when it records it.
        ``step_count`` lags the delivery loop's local only in runs nothing
        observes; a traced loop stores it per delivery, so the drop carries
        its delivery's step.
        """
        network = self.network
        network.trace.on_drop(network.step_count, entry, receiver, "shunned")

    # ------------------------------------------------------------------
    # Shunning (Definition 3.2): once party i shuns party j, it accepts j's
    # messages in interactions that already existed, but drops them in every
    # interaction created afterwards.
    # ------------------------------------------------------------------
    def shun(self, party: int, session: SessionId) -> None:
        """Start shunning ``party`` from now on (recorded against ``session``)."""
        if party == self.pid:
            return
        if party not in self._shunned_from:
            if not self._shunned_from:
                self._shun_floor = self._creation_counter
            self._shunned_from[party] = self._creation_counter
            network = self.network
            network.trace.on_shun(
                network.step_count, self.pid, party, tuple(session)
            )

    def is_shunning(self, party: int) -> bool:
        """True when this process has ever shunned ``party``."""
        return party in self._shunned_from

    def _is_shunned_for(self, sender: int, instance: Protocol) -> bool:
        threshold = self._shunned_from.get(sender)
        if threshold is None:
            return False
        return instance.birth_index >= threshold

    # ------------------------------------------------------------------
    # Completion bookkeeping.
    # ------------------------------------------------------------------
    def notify_completion(self, instance: Protocol) -> None:
        """Record a protocol completion (network counters + trace)."""
        network = self.network
        network.record_completion(self.pid, instance.session)
        trace = network.trace
        if trace.enabled:
            trace.on_complete(
                network.step_count, self.pid, instance.session, instance.output
            )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        tag = "corrupted" if self.is_corrupted else "honest"
        return f"<Process {self.pid} ({tag}) protocols={len(self.protocols)}>"
