"""A-Cast: Bracha's asynchronous reliable broadcast.

This is the Broadcast primitive of Definition 4.4 (the paper cites Bracha
[6]).  A designated sender distributes a value; the protocol guarantees

* **Termination** -- with an honest sender every honest party completes; if
  any honest party completes, every participating honest party completes.
* **Validity** -- with an honest sender everyone outputs the sender's value.
* **Correctness** -- no two honest parties output different values.

Message flow (classic echo/ready): the sender broadcasts ``VALUE``; parties
echo it; ``n - t`` echoes (or ``t + 1`` readies) trigger a ``READY``;
``n - t`` readies deliver.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Optional, Set

from repro.net.message import SessionId
from repro.net.process import Process
from repro.net.protocol import Protocol


class ACast(Protocol):
    """One reliable-broadcast instance with a designated ``sender`` party.

    Start kwargs:
        value: the value to broadcast (required at the sender, ignored
            elsewhere).

    Output: the broadcast value.
    """

    def __init__(self, process: Process, session: SessionId, sender: int) -> None:
        super().__init__(process, session)
        self.sender = sender
        self._echoed = False
        self._readied = False
        self._echoes: Dict[Any, Set[int]] = defaultdict(set)
        self._readies: Dict[Any, Set[int]] = defaultdict(set)

    @classmethod
    def factory(cls, sender: int) -> Callable[[Process, SessionId], "ACast"]:
        """Protocol factory fixing the designated sender."""
        def build(process: Process, session: SessionId) -> "ACast":
            return cls(process, session, sender)

        return build

    # ------------------------------------------------------------------
    def on_start(self, value: Optional[Any] = None, **_: Any) -> None:
        if self.pid == self.sender:
            if value is None:
                raise ValueError("the A-Cast sender must provide a value")
            self.broadcast("VALUE", value)

    def on_message(self, sender: int, payload: tuple) -> None:
        if not payload:
            return
        kind = payload[0]
        if kind == "VALUE" and len(payload) == 2:
            self._on_value(sender, payload[1])
        elif kind == "ECHO" and len(payload) == 2:
            self._on_echo(sender, payload[1])
        elif kind == "READY" and len(payload) == 2:
            self._on_ready(sender, payload[1])
        # Unknown kinds and malformed payloads are ignored: they can only
        # come from faulty parties.

    # ------------------------------------------------------------------
    def _on_value(self, sender: int, value: Any) -> None:
        if sender != self.sender or self._echoed:
            return
        self._echoed = True
        self.broadcast("ECHO", value)

    def _on_echo(self, sender: int, value: Any) -> None:
        self._echoes[value].add(sender)
        if not self._readied and len(self._echoes[value]) >= self.n - self.t:
            self._readied = True
            self.broadcast("READY", value)
        self._check_delivery(value)

    def _on_ready(self, sender: int, value: Any) -> None:
        self._readies[value].add(sender)
        if not self._readied and len(self._readies[value]) >= self.t + 1:
            # Ready amplification: t+1 readies prove at least one honest
            # party readied this value, so it is safe to join.
            self._readied = True
            self.broadcast("READY", value)
        self._check_delivery(value)

    def _check_delivery(self, value: Any) -> None:
        if not self.finished and len(self._readies[value]) >= self.n - self.t:
            self.complete(value)
