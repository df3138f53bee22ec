"""Message model for the asynchronous network simulator.

A :class:`Message` is addressed to a *protocol session* on a receiving party.
Sessions are hierarchical tuples (for example ``("coinflip", 3, "svss", 2,
"share")``), which lets an arbitrarily deep stack of sub-protocols multiplex
over one simulated network without any global registry.

``Message`` is the single most-allocated object in a simulation (one per
send), so it is a plain ``__slots__`` class rather than a dataclass: slot
stores in ``__init__`` cost a fraction of the frozen-dataclass
``object.__setattr__`` path, and the ``kind`` / ``root`` tags the tracing
layer reads on every send are precomputed attributes instead of properties.
Messages are immutable *by convention*: they are created only by
``Network.submit`` and never mutated afterwards; tests and tools must treat
them as frozen values.

A lone send is the one-copy fan-out of itself: a Message answers the calls
the delivery queues, the delivery loop and the trace make of a
:class:`~repro.net.queues.FanoutEntry` (``copies``, ``materialize``,
``seq_of``, ``values``, ``skip``), so every in-flight copy has one shape,
``(entry, receiver)``.  Protocols send lone messages rarely: a broadcast or
a ROW/POINT loop is a fan-out whoever sends it -- a corrupted sender's
outgoing mutator maps its copies, and what survives is still one entry
(:class:`~repro.net.queues.SurvivorsEntry`).  Only a mutator that readdresses
a copy turns its fan-out into lone sends.
"""

from __future__ import annotations

from typing import Any, Tuple

#: A session identifier: a tuple of hashable path components.  The empty tuple
#: is reserved and never used by protocols.
SessionId = Tuple[Any, ...]


class Message:
    """A single point-to-point message in flight.

    Queued, popped, buffered and logged as the one-copy fan-out ``(message,
    message.receiver)``: ``copies(n)`` is ``(receiver,)``,
    ``materialize(receiver)`` the message itself, ``seq_of(receiver)`` its
    ``seq``, and ``values`` / ``skip`` are None.

    Attributes:
        sender: party id of the sender.
        receiver: party id of the destination.
        session: hierarchical session identifier of the destination protocol.
        payload: protocol payload; by convention a tuple whose first element
            is a short message-type string (``("ECHO", value)``).
        seq: global sequence number assigned by the network at send time.
            Used for deterministic tie-breaking and FIFO scheduling.
        kind: the message-type tag (first payload element), or None if empty.
        root: the root component of the session path (top-level protocol
            name), or None for the empty session.
    """

    __slots__ = ("sender", "receiver", "session", "payload", "seq", "kind", "root")

    #: A lone send carries one payload and leaves no receiver out.
    values = None
    skip = None

    def __init__(
        self,
        sender: int,
        receiver: int,
        session: SessionId,
        payload: Tuple[Any, ...],
        seq: int = 0,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.session = session
        self.payload = payload
        self.seq = seq
        self.kind = payload[0] if payload else None
        self.root = session[0] if session else None

    def copies(self, n: int) -> Tuple[int]:
        """The receivers of this send's copies: its one receiver, whatever ``n``."""
        return (self.receiver,)

    def materialize(self, receiver: int) -> "Message":
        """The copy addressed to ``receiver``: the message itself."""
        return self

    def seq_of(self, receiver: int) -> int:
        """The sequence number of the copy addressed to ``receiver``."""
        return self.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.sender == other.sender
            and self.receiver == other.receiver
            and self.session == other.session
            and self.payload == other.payload
            and self.seq == other.seq
        )

    def __hash__(self) -> int:
        return hash((self.sender, self.receiver, self.session, self.payload, self.seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Message(sender={self.sender!r}, receiver={self.receiver!r}, "
            f"session={self.session!r}, payload={self.payload!r}, seq={self.seq!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Message(#{self.seq} {self.sender}->{self.receiver} "
            f"{'/'.join(map(str, self.session))} {self.payload!r})"
        )


def session_child(session: SessionId, *components: Any) -> SessionId:
    """Return the session id of a child protocol under ``session``."""
    return tuple(session) + tuple(components)


def session_is_descendant(session: SessionId, ancestor: SessionId) -> bool:
    """Return True when ``session`` equals or lies below ``ancestor``."""
    return len(session) >= len(ancestor) and tuple(session[: len(ancestor)]) == tuple(
        ancestor
    )
