"""CommonSubset: agreeing on a set of indices satisfying a dynamic predicate.

This is Algorithm 4 (Appendix C) of the paper, used both by ``CoinFlip``
(to agree on which SVSS sharings to reconstruct) and by ``FBA`` (to agree on
whose A-Cast inputs to consider).  Each party ``P_i`` holds a *dynamic
predicate* ``Q_i``: a monotone boolean per index that can flip from 0 to 1 as
the party observes irreversible conditions (for example "I completed
``SVSS-Share`` with dealer ``j``").

Protocol sketch (one binary BA per index):

1. When ``Q_i(j)`` becomes 1 and fewer than ``k`` BAs have output 1 so far,
   join ``BA_j`` with input 1.
2. When the count of BAs that output 1 reaches ``k``, join every remaining
   ``BA_j`` with input 0.
3. When every ``BA_j`` has terminated, output ``{j : BA_j output 1}``.

The parent protocol drives the predicate by calling
:meth:`CommonSubset.set_predicate` -- this mirrors the paper's ``Q_i``
"becoming 1" and keeps the common-subset logic reusable across parents.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from repro.net.message import SessionId
from repro.net.process import Process
from repro.net.protocol import Protocol
from repro.protocols.aba import BinaryAgreement, CoinSource, OracleCoinSource


class CommonSubset(Protocol):
    """Algorithm 4: ``CommonSubset(Q_i, k)``.

    Start kwargs:
        k: minimum size of the output set (defaults to ``n - t``).

    Output: a set of indices ``S`` with ``|S| >= k`` on which all honest
    parties agree, each backed by some honest party's predicate.
    """

    def __init__(
        self,
        process: Process,
        session: SessionId,
        coin_source: Optional[CoinSource] = None,
    ) -> None:
        super().__init__(process, session)
        self.coin_source = coin_source or OracleCoinSource()
        self.k = self.params.quorum
        self.predicate: Set[int] = set()
        self.joined: Dict[int, int] = {}
        self.ba_outputs: Dict[int, int] = {}
        self._ones = 0
        self._flushed_zeros = False

    @classmethod
    def factory(
        cls, coin_source: Optional[CoinSource] = None
    ) -> Callable[[Process, SessionId], "CommonSubset"]:
        """Protocol factory fixing the BA coin source."""
        def build(process: Process, session: SessionId) -> "CommonSubset":
            return cls(process, session, coin_source)

        return build

    # ------------------------------------------------------------------
    def on_start(self, k: Optional[int] = None, **_: Any) -> None:
        if k is not None:
            self.k = k
        # Predicate values may have been set before start.
        for index in sorted(self.predicate):
            self._maybe_join_with_one(index)

    def set_predicate(self, index: int) -> None:
        """Record that ``Q_i(index)`` became 1 (monotone, idempotent)."""
        if index in self.predicate or not self.params.is_valid_party(index):
            return
        self.predicate.add(index)
        if self.started:
            self._maybe_join_with_one(index)

    # ------------------------------------------------------------------
    def on_message(self, sender: int, payload: tuple) -> None:
        # All communication happens inside the child BA instances; the
        # CommonSubset session itself carries no direct messages.
        return

    def on_child_complete(self, child: Protocol) -> None:
        # The BAs are the children spawned under ("ba", index).
        kind, index = child.spawn_key
        if kind != "ba" or index in self.ba_outputs:
            return
        self.ba_outputs[index] = int(child.output)
        if self.ba_outputs[index] == 1:
            self._ones += 1
            if self._ones >= self.k:
                self._flush_zeros()
        self._maybe_complete()

    # ------------------------------------------------------------------
    def _maybe_join_with_one(self, index: int) -> None:
        if index in self.joined or self._ones >= self.k:
            return
        self._join(index, 1)

    def _flush_zeros(self) -> None:
        if self._flushed_zeros:
            return
        self._flushed_zeros = True
        for index in range(self.n):
            if index not in self.joined:
                self._join(index, 0)

    def _join(self, index: int, vote: int) -> None:
        self.joined[index] = vote
        self.spawn(
            ("ba", index),
            BinaryAgreement.factory(self.coin_source),
            value=vote,
        )

    def _maybe_complete(self) -> None:
        if self.finished or len(self.ba_outputs) < self.n:
            return
        subset = frozenset(
            index for index, value in self.ba_outputs.items() if value == 1
        )
        self.complete(subset)
