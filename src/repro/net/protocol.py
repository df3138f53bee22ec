"""Protocol base class: the programming model for every protocol in the library.

A :class:`Protocol` instance lives inside a :class:`~repro.net.process.Process`
(one party) and is addressed by a hierarchical session id.  Protocols

* send point-to-point messages with :meth:`Protocol.send` and
  :meth:`Protocol.broadcast`,
* spawn sub-protocols with :meth:`Protocol.spawn` (the child session id is the
  parent's session id extended by a key, so all parties derive the same id
  without coordination),
* deliver their result with :meth:`Protocol.complete`, which notifies the
  parent via :meth:`Protocol.on_child_complete`.

Completion does **not** stop a protocol: as required throughout the paper
("continue participating in all relevant invocations until they terminate"),
a completed protocol keeps processing messages so that slower parties can
still finish.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.core.config import ProtocolParams
from repro.errors import ProtocolError
from repro.net.message import SessionId, session_child

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.process import Process


class Protocol:
    """Base class for all protocol implementations.

    Subclasses override :meth:`on_start`, :meth:`on_message` and (when they
    spawn children) :meth:`on_child_complete`.

    The base class is ``__slots__``-only: message handlers read these
    attributes on every delivery, and slot access skips the per-instance
    dict.  Subclasses that declare their own ``__slots__`` stay dict-free
    (the hot SVSS/coin protocols do); subclasses that don't automatically
    get a ``__dict__`` and may set ad-hoc attributes as before.
    """

    __slots__ = (
        "process",
        "session",
        "parent",
        "children",
        "_child_sessions",
        "spawn_key",
        "started",
        "finished",
        "output",
        "birth_index",
        "pid",
        "params",
        "n",
        "t",
    )

    def __init__(self, process: "Process", session: SessionId) -> None:
        self.process = process
        #: Interned network-wide: all parties (and in-flight messages) share
        #: one tuple object per session, so routing-dict lookups compare by
        #: identity and the send path never copies the session.
        self.session: SessionId = process.network.intern_session(session)
        self.parent: Optional[Protocol] = None
        self.children: Dict[Any, Protocol] = {}
        #: The key this protocol was spawned under (None for roots); lets a
        #: parent with many children map a completion back to its key in O(1)
        #: instead of scanning its children dict.
        self.spawn_key: Any = None
        #: spawn key -> interned child session, so repeated child-session
        #: derivations stop allocating tuples.
        self._child_sessions: Dict[Any, SessionId] = {}
        self.started = False
        self.finished = False
        self.output: Any = None
        #: Monotone creation index assigned by the process; used by the
        #: shunning bookkeeping ("ignore messages in *future* interactions").
        self.birth_index: int = -1
        # Convenience accessors, cached as plain attributes: the process and
        # its parameters are fixed for the protocol's lifetime, and message
        # handlers read n/t/pid on every delivery -- a property (two
        # attribute hops + a call) per read is pure overhead.
        #: This party's identifier.
        self.pid: int = process.pid
        #: Protocol parameters (n, t, field prime).
        self.params: ProtocolParams = process.params
        #: Total number of parties.
        self.n: int = process.params.n
        #: Corruption bound.
        self.t: int = process.params.t

    @property
    def rng(self) -> random.Random:
        """This party's private random source (:attr:`Process.rng`).

        Read through, not cached: a party's source is seeded on its first
        draw, and most protocol instances never draw.
        """
        return self.process.rng

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self, **kwargs: Any) -> "Protocol":
        """Start the protocol (at most once).  Returns self for chaining.

        Messages that arrived before the protocol started are delivered
        immediately after ``on_start`` returns, in arrival order.
        """
        if self.started:
            raise ProtocolError(
                f"protocol {self.session} at party {self.pid} started twice"
            )
        self.started = True
        self.on_start(**kwargs)
        self.process.flush_pending(self)
        return self

    def complete(self, value: Any) -> None:
        """Record the protocol output and notify the parent (idempotent)."""
        if self.finished:
            return
        self.finished = True
        self.output = value
        self.process.notify_completion(self)
        if self.parent is not None:
            self.parent.on_child_complete(self)

    def annotate_phase(self, phase: str) -> None:
        """Record that this instance entered ``phase`` (a trace milestone).

        Feeds the session-timeline builder (:mod:`repro.obs.timeline`):
        protocols mark their internal progress points -- SVSS row/ready,
        ABA ``round-k``, coin ``iter-k`` -- as ``phase`` trace events.  A
        no-op when tracing is off (the hook is rebound at construction), so
        the group-mode fast path pays one dead call per milestone.
        """
        network = self.process.network
        network.trace.on_phase(network.step_count, self.pid, self.session, phase)

    # ------------------------------------------------------------------
    # Communication.
    # ------------------------------------------------------------------
    def send(self, receiver: int, *payload: Any) -> None:
        """Send ``payload`` to ``receiver``, addressed to this same session."""
        self.process.send(receiver, self.session, payload)

    def broadcast(self, *payload: Any) -> None:
        """Send ``payload`` to every party, including ourselves.

        The self-addressed copy travels through the network like any other
        message, so the scheduler may reorder it; protocols must not assume
        they hear themselves first.  One fan-out (same sequence numbers and
        queue order as n individual sends), through the party's outgoing
        mutator if it has one (:attr:`Process.send_fanout`).
        """
        self.process.send_fanout(
            self.pid, self.session, payload[0] if payload else None, payload, None, None
        )

    # ------------------------------------------------------------------
    # Sub-protocols.
    # ------------------------------------------------------------------
    def spawn(
        self,
        key: Any,
        factory: Callable[["Process", SessionId], "Protocol"],
        start: bool = True,
        **start_kwargs: Any,
    ) -> "Protocol":
        """Create (and by default start) a child protocol.

        Args:
            key: child key; the child's session id is ``self.session + key``
                when ``key`` is a tuple, else ``self.session + (key,)``.
            factory: ``factory(process, session)`` returning the child.
            start: whether to call :meth:`start` immediately.
            start_kwargs: forwarded to the child's :meth:`on_start`.
        """
        child = self.process.create_protocol(self.child_session(key), factory)
        child.parent = self
        child.spawn_key = key if isinstance(key, tuple) else (key,)
        self.children[key] = child
        if start and not child.started:
            child.start(**start_kwargs)
        return child

    def child(self, key: Any) -> Optional["Protocol"]:
        """Return the child spawned under ``key``, or None."""
        return self.children.get(key)

    def child_session(self, key: Any) -> SessionId:
        """The (interned) session id of the child spawned under ``key``.

        The derived tuple is cached per key and interned network-wide, so
        deriving the same child session twice never allocates.
        """
        cached = self._child_sessions.get(key)
        if cached is None:
            components = key if isinstance(key, tuple) else (key,)
            cached = self.process.network.intern_session(
                session_child(self.session, *components)
            )
            self._child_sessions[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Shunning support (used by SVSS; see Definition 3.2 in the paper).
    # ------------------------------------------------------------------
    def shun(self, party: int) -> None:
        """Shun ``party``: accept nothing from it in protocols created later."""
        self.process.shun(party, self.session)

    # ------------------------------------------------------------------
    # Subclass hooks.
    # ------------------------------------------------------------------
    def on_start(self, **kwargs: Any) -> None:
        """Called once when the protocol starts.  Override in subclasses."""

    def on_message(self, sender: int, payload: tuple) -> None:
        """Called for every message delivered to this session.  Override."""

    def on_child_complete(self, child: "Protocol") -> None:
        """Called when a child spawned by this protocol completes.  Override."""

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = "done" if self.finished else ("running" if self.started else "new")
        return (
            f"<{type(self).__name__} pid={self.pid} "
            f"session={'/'.join(map(str, self.session))} {status}>"
        )
