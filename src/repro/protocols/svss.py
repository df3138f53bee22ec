"""SVSS: shunning verifiable secret sharing (Definition 3.2).

The paper builds its strong common coin from the *shunning* VSS of Abraham,
Dolev and Halpern (PODC'08).  SVSS weakens full AVSS exactly enough to escape
the Section-2 lower bound: instead of unconditional binding it guarantees
**binding or shunning** -- whenever reconstruction would disagree, some party
starts shunning another party, and fewer than ``n^2`` shunning events can ever
occur, so at most ``n^2`` SVSS instances can "fail".

This module implements the pair of protocols

* :class:`SVSSShare` -- the dealer embeds the secret in a random symmetric
  bivariate polynomial ``F`` of degree ``t`` and sends party ``i`` its row
  ``f_i(y) = F(alpha_i, y)``.  Parties cross-check pairwise points
  (``f_i(alpha_j) = f_j(alpha_i)``), send ``READY`` once ``n - t`` points are
  consistent with their row and complete on ``n - t`` ``READY`` messages.
  Parties that never received a row from a (faulty) dealer recover it from the
  points of ``READY`` senders, which keeps the termination property
  "one honest completion implies all honest completions".
* :class:`SVSSRec` -- parties broadcast their rows; a received row is accepted
  if it matches the receiver's own row at the receiver's index, otherwise the
  sender is shunned.  ``t + 1`` accepted rows reconstruct the secret.

Shunning is triggered by provable misbehaviour (equivocation, malformed
payloads) and by row/point inconsistencies during reconstruction.  Relative to
ADH'08 the blame-assignment logic is simplified: with a *faulty dealer* an
inconsistency may cause an honest party to be shunned.  This preserves every
property the CoinFlip analysis uses (binding-or-shun, fewer than ``n^2`` shun
events, validity and hiding for honest dealers) and is documented in
DESIGN.md as a substitution.

Hot-path design (SVSS messages dominate every coin/agreement trial):

* **Raw-int rows** -- the dealer draws ``F`` as an int coefficient matrix
  (``kernels.random_symmetric_matrix``), and ROW/RECROW payloads are
  validated, compared, evaluated and held as plain reduced int tuples.
* **Network-wide batched crypto plane** -- all instances of a trial share the
  :class:`~repro.crypto.kernels.CryptoPlane` interned on the network.  Every
  value any party checks for one dealer is an entry of the grid
  ``F(alpha_i, alpha_j)``, so an honest dealer computes it once
  (``deal_rows``: two matrix products on vectorised plans) and seeds the
  plane with each row's record; receivers resolve their ROW, every
  POINT/RECROW consistency check and the RECROW of every peer by lookup.
  The miss path is for everything else -- tampered, Byzantine-dealt and
  recovered rows are validated once and evaluated at *all* party points once
  on first sight -- and an entry only answers for the very payload object it
  is stored under (an equal tuple of floats is not the row).  The plane is
  simulator memory, not a party's: a dealt row is in it before it is
  delivered, so behaviours must never read it.  Reconstruction from ``t + 1``
  rows one honest dealer dealt to those very parties is a lookup of its
  secret ``F(0, 0)`` (``CryptoPlane.dealt_secret``, equal to interpolation
  by Lagrange uniqueness); any other row set -- tampered, Byzantine-dealt,
  mixed -- is interpolated with Lagrange weights picked from the plan's
  factor table.  The scalar kernels remain the oracle: every plane answer is
  byte-identical (``tests/crypto/test_eval_plan.py``,
  ``tests/protocols/test_svss.py::test_handlers_match_scalar_model``,
  ``tests/test_golden_trials.py``).
* **Decode-based row recovery** -- recovering a withheld row used to try
  every ``(t+1)``-subset of vouched points (``C(k, t+1)`` interpolations --
  minutes of work at ``n = 32``).  The fast path interpolates once and
  verifies, then falls back to Berlekamp-Welch decoding, and only reaches the
  exhaustive search in the genuinely ambiguous adversarial corner where no
  uniquely-best candidate exists.  All three paths return byte-identical
  results (``tests/test_golden_trials.py``, ``tests/protocols/test_svss.py``).
  The search runs only within :data:`SEARCH_BUDGET` candidates; above it the
  party waits for its next vouched point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto import kernels
from repro.errors import DecodingError
from repro.net.message import SessionId
from repro.net.process import Process
from repro.net.protocol import Protocol

#: Most ``(t+1)``-subsets the exhaustive row-recovery search may try:
#: ``C(16, 6)``, the largest search a trial at ``n <= 16`` can ask for
#: (``k <= 16`` vouched points, ``t = 5``), so every run at those sizes keeps
#: its answer.  Above it the search is skipped and the party waits for its
#: next vouched point: once every honest point is in and ``c <= t`` vouched
#: points are corrupted, ``k >= t + 1 + 2c`` and path 2 decodes.
SEARCH_BUDGET = math.comb(16, 6)


def party_point(pid: int) -> int:
    """Field evaluation point of party ``pid`` (1-based to keep 0 for the secret)."""
    return pid + 1


def _validate_row_ints(prime: int, t: int, coefficients: Any) -> Optional[Tuple[int, ...]]:
    """Validate a wire-format row: the reduced, trimmed coefficient tuple.

    Returns ``None`` when the payload is malformed (not a tuple or list of
    ints) or its degree exceeds ``t``; both cases shun the sender.

    This is the scalar oracle; the protocol classes route through the
    network's :class:`~repro.crypto.kernels.CryptoPlane`, whose cached
    ``validate_row`` agrees with this function on every input
    (``tests/crypto/test_eval_plan.py``).
    """
    if not isinstance(coefficients, (tuple, list)) or not all(
        isinstance(c, int) for c in coefficients
    ):
        return None
    # poly_trim(()) is (); an empty payload is the zero polynomial, and
    # downstream code indexes row[0], so the () form must never escape.
    trimmed = kernels.poly_trim(tuple(c % prime for c in coefficients)) or (0,)
    if len(trimmed) - 1 > t:
        return None
    return trimmed


@dataclass
class ShareState:
    """A party's local state after completing ``SVSS-Share``.

    Attributes:
        dealer: the dealer's party id.
        row_ints: this party's row polynomial ``f_i`` as its reduced, trimmed
            coefficient tuple (the wire form).
        recovered: True when the row was recovered from peers' points rather
            than received from the dealer.
    """

    dealer: int
    row_ints: Tuple[int, ...] = ()
    recovered: bool = False


class SVSSShare(Protocol):
    """The sharing half of SVSS with designated ``dealer``.

    Start kwargs:
        value: the secret (an int, reduced modulo the field prime); required
            at the dealer.

    Output: a :class:`ShareState` for use by :class:`SVSSRec`.
    """

    __slots__ = (
        "dealer",
        "_plane",
        "row_ints",
        "_row_evals",
        "row_recovered",
        "secret_matrix",
        "points",
        "_consistent_count",
        "_ready_flags",
        "_ready_count",
        "_quorum",
        "_points_sent",
        "_ready_sent",
    )

    def __init__(self, process: Process, session: SessionId, dealer: int) -> None:
        super().__init__(process, session)
        self.dealer = dealer
        #: Network-wide batched crypto plane (shared row/eval caches and tags).
        self._plane = process.network.crypto_plane()
        #: This party's row as a reduced int tuple (None until known).
        self.row_ints: Optional[Tuple[int, ...]] = None
        #: Row evaluated at every party point, indexed by pid (filled with the row).
        self._row_evals: List[int] = []
        self.row_recovered = False
        #: The dealer's ``F`` as its symmetric coefficient matrix (dealer only).
        self.secret_matrix: Optional[List[List[int]]] = None
        #: Received cross-points, indexed by sender pid (None until received).
        self.points: List[Optional[int]] = [None] * self.n
        #: Number of senders (self included) whose point matches our row.
        self._consistent_count = 0
        #: READY flags and count, indexed by sender pid.
        self._ready_flags: List[bool] = [False] * self.n
        self._ready_count = 0
        self._quorum = self.n - self.t
        self._points_sent = False
        self._ready_sent = False

    @classmethod
    def factory(cls, dealer: int) -> Callable[[Process, SessionId], "SVSSShare"]:
        """Protocol factory fixing the dealer."""
        def build(process: Process, session: SessionId) -> "SVSSShare":
            return cls(process, session, dealer)

        return build

    # ------------------------------------------------------------------
    def on_start(self, value: Optional[Any] = None, **_: Any) -> None:
        if self.pid != self.dealer:
            return
        if value is None:
            raise ValueError("the SVSS dealer must provide a value")
        self.secret_matrix = kernels.random_symmetric_matrix(
            self.params.prime, self.t, self.rng, int(value)
        )
        # The whole sharing through one grid product: all n wire rows
        # ``f_i = F(alpha_i, .)`` and every cross-point, seeded into the plane
        # so no receiver validates or evaluates an honestly dealt row again.
        rows = self._plane.deal_rows(self.secret_matrix)
        self.process.send_fanout(self.pid, self.session, "ROW", None, rows, None)

    # ------------------------------------------------------------------
    def on_message(self, sender: int, payload: tuple) -> None:
        if not payload:
            return
        kind = payload[0]
        # Dispatch in delivery-frequency order, with the POINT and READY
        # bodies inlined: together they are ~n of every n+1 deliveries of a
        # share instance, and a call frame each is measurable at n=64.
        if kind == "POINT" and len(payload) == 2:
            value = payload[1]
            if not isinstance(value, int):
                self.shun(sender)
                return
            points = self.points
            known = points[sender]
            if known is not None:
                if known != value:
                    # Equivocation on a point: provably faulty.
                    self.shun(sender)
                return
            points[sender] = value
            if self.row_ints is not None:
                if self._ready_sent:
                    # READY is out: the consistency tally has served its only
                    # purpose and no further bookkeeping can be observed.
                    return
                if self._row_evals[sender] == value:
                    self._consistent_count += 1
                    self._maybe_ready()
            else:
                self._maybe_recover_row()
        elif kind == "READY" and len(payload) == 1:
            if self.finished:
                # Completion required the row, so neither recovery nor the
                # READY tally can have any further observable effect.
                return
            flags = self._ready_flags
            if not flags[sender]:
                flags[sender] = True
                self._ready_count += 1
            if self.row_ints is None:
                self._maybe_recover_row()
            elif self._ready_count >= self._quorum:
                self._maybe_complete()
        elif kind == "ROW" and len(payload) == 2:
            self._on_row(sender, payload[1])

    def _on_row(self, sender: int, coefficients: Any) -> None:
        if sender != self.dealer:
            return
        record = self._plane.validate_row_record(coefficients)
        if record is None:
            # Malformed payload or degree > t: provably faulty dealer.
            self.shun(sender)
            return
        row, evals = record
        if self.row_ints is not None:
            if row != self.row_ints and not self.row_recovered:
                # Equivocating dealer.
                self.shun(sender)
            return
        self.row_ints = row
        self._after_row_known(evals)

    def _after_row_known(self, evals: Optional[List[int]] = None) -> None:
        assert self.row_ints is not None
        self.annotate_phase("row")
        # One batched evaluation at all party points (cached network-wide)
        # backs both the POINT sends and every subsequent consistency check.
        if evals is None:
            evals = self._plane.row_evals(self.row_ints)
        self._row_evals = evals
        if not self._points_sent:
            self._points_sent = True
            self.process.send_fanout(self.pid, self.session, "POINT", None, evals, self.pid)
        # Batch-examine the points buffered before the row arrived (an
        # inconsistent point is simply not counted: we cannot tell whether
        # the dealer or the peer is at fault during the share phase).
        count = 1  # our own point is consistent by construction
        for sender, value in enumerate(self.points):
            if value is not None and evals[sender] == value:
                count += 1
        self._consistent_count = count
        self._maybe_ready()
        self._maybe_complete()

    # ------------------------------------------------------------------
    def _maybe_ready(self) -> None:
        if self._ready_sent or self.row_ints is None:
            return
        if self._consistent_count >= self._quorum:
            self._ready_sent = True
            self.annotate_phase("ready")
            self.broadcast("READY")

    def _maybe_complete(self) -> None:
        if self.finished or self.row_ints is None:
            return
        if self._ready_count >= self._quorum:
            self.complete(
                ShareState(
                    dealer=self.dealer,
                    row_ints=self.row_ints,
                    recovered=self.row_recovered,
                )
            )

    # ------------------------------------------------------------------
    # Row recovery: keeps Termination(b) alive when a faulty dealer withheld
    # our row.  The points party i received are evaluations of *its own* row
    # at the senders' indices (by symmetry of F), so t+1 correct points
    # determine the row.  We only trust points from READY senders and require
    # the candidate to agree with at least t+1 of them.
    # ------------------------------------------------------------------
    def _maybe_recover_row(self) -> None:
        if self.row_ints is not None:
            return
        # Normally we wait for an n - t READY quorum before trusting peer
        # points.  A party that shuns the dealer, however, drops the dealer's
        # ROW and READY messages, so it can never observe that quorum; since a
        # shunning event already licenses treating this instance as "binding
        # or shun", it may recover as soon as t + 1 READY senders vouch.
        ready_count = self._ready_count
        if ready_count < self.t + 1:
            # Below even the shunning threshold: nothing to try yet (this is
            # the common early-exit while the dealer's ROW is simply slow).
            return
        threshold = (
            self.t + 1
            if self.process.is_shunning(self.dealer)
            else self._quorum
        )
        if ready_count < threshold:
            return
        flags = self._ready_flags
        usable = {
            sender: value
            for sender, value in enumerate(self.points)
            if value is not None and flags[sender]
        }
        if len(usable) < self.t + 1:
            return
        candidate = self._recover_from_points(usable)
        if candidate is None:
            return
        # A recovered row equal to one the plane holds *is* that row: sent on
        # as the held object, its RECROW is a lookup at every receiver.
        held = self._plane.row_cache.get(candidate)
        self.row_ints = candidate if held is None else held[0]
        self.row_recovered = True
        self._after_row_known()

    def _recover_from_points(self, usable: Dict[int, int]) -> Optional[Tuple[int, ...]]:
        """The degree-<=t polynomial with maximal agreement among ``usable``.

        Semantics (inherited from the seed's exhaustive search): among all
        candidates interpolated through some ``t+1``-subset of the points,
        return the one agreeing with the most points, requiring agreement of
        at least ``t + 1``; ties resolve to the candidate first produced by
        subset enumeration over senders in sorted order.

        Three implementations of those semantics, fastest first:

        1. interpolate the first ``t+1`` points and verify against all -- the
           honest case, where every vouched point lies on the true row;
        2. Berlekamp-Welch with ``e = (k - t - 1) // 2`` tolerated errors --
           when it decodes, the result agrees with ``>= k - e`` points, which
           makes it the *strictly unique* maximal candidate (any other
           degree-<=t polynomial matches at most ``e + t < k - e`` points),
           so it is exactly what the exhaustive search would return;
        3. the exhaustive subset search, kept verbatim for the ambiguous
           corner (more than ``e`` corrupted vouched points), with an early
           exit once a candidate's agreement ``a`` satisfies ``2a > k + t``
           (the same uniqueness bound: no later subset can beat it).  It runs
           only when ``C(k, t+1) <= SEARCH_BUDGET``; otherwise the answer is
           None and the caller retries on the next vouched point.
        """
        prime = self.params.prime
        t = self.t
        plane = self._plane
        senders = sorted(usable)
        xs = tuple(party_point(s) for s in senders)
        # Agreement always compares against the *raw* received value (a value
        # outside [0, prime) can never agree with any candidate -- the seed's
        # semantics); interpolation and decoding work on the reduced mirror.
        ys_raw = [usable[s] for s in senders]
        ys = [y % prime for y in ys_raw]
        k = len(senders)

        def raw_agreement(cand: Tuple[int, ...]) -> int:
            # One batched (and cached) sweep over all party points replaces a
            # Horner evaluation per vouched point; evals[s] == cand(s + 1).
            evals = plane.row_evals(cand)
            return sum(1 for s, y in zip(senders, ys_raw) if evals[s] == y)

        # Fast path 1: all vouched points on one degree-<=t polynomial.
        candidate = kernels.poly_trim(kernels.interpolate(prime, xs[: t + 1], ys[: t + 1]))
        if raw_agreement(candidate) == k:
            return candidate

        # Fast path 2: unique decoding with up to (k - t - 1) // 2 errors.
        max_errors = (k - t - 1) // 2
        if max_errors >= 1:
            try:
                candidate = kernels.berlekamp_welch_raw(prime, xs, ys, t, max_errors)
            except DecodingError:
                candidate = None
            if candidate is not None and 2 * raw_agreement(candidate) > k + t:
                return candidate

        # Ambiguous corner: exhaustive search, as the seed implementation,
        # where it is affordable; otherwise wait for more points.
        if math.comb(k, t + 1) > SEARCH_BUDGET:
            return None
        best_agreement = 0
        best: Optional[Tuple[int, ...]] = None
        for subset in itertools.combinations(range(k), t + 1):
            sub_xs = tuple(xs[i] for i in subset)
            cand = kernels.poly_trim(
                kernels.interpolate(prime, sub_xs, [ys[i] for i in subset])
            )
            if len(cand) - 1 > t:
                continue
            agreement = raw_agreement(cand)
            if agreement > best_agreement:
                best_agreement, best = agreement, cand
                if 2 * agreement > k + t:
                    # Strictly unique maximum: no later subset can beat it.
                    break
        if best is None or best_agreement < t + 1:
            return None
        return best


class SVSSRec(Protocol):
    """The reconstruction half of SVSS.

    Start kwargs:
        share: the :class:`ShareState` produced by :class:`SVSSShare`.

    Output: the reconstructed secret as a plain integer.
    """

    __slots__ = (
        "dealer",
        "_plane",
        "_row_cache",
        "_t1",
        "share",
        "_own_evals",
        "received_rows",
        "validated",
    )

    def __init__(self, process: Process, session: SessionId, dealer: int) -> None:
        super().__init__(process, session)
        self.dealer = dealer
        #: Network-wide batched crypto plane (shared row/eval caches and tags).
        self._plane = plane = process.network.crypto_plane()
        # Direct reference to the plane's shared row cache: the RECROW handler
        # is the single hottest protocol path of a coin trial, and the hit
        # case must be one dict probe, not a method-call chain.
        self._row_cache = plane.row_cache
        self._t1 = self.t + 1
        self.share: Optional[ShareState] = None
        #: Own row evaluated at every party point, indexed by pid.
        self._own_evals: List[int] = []
        #: Accepted first row per sender pid (None until received).
        self.received_rows: List[Optional[Tuple[int, ...]]] = [None] * self.n
        self.validated: Dict[int, Tuple[int, ...]] = {}

    @classmethod
    def factory(cls, dealer: int) -> Callable[[Process, SessionId], "SVSSRec"]:
        """Protocol factory fixing the dealer whose secret is reconstructed."""
        def build(process: Process, session: SessionId) -> "SVSSRec":
            return cls(process, session, dealer)

        return build

    # ------------------------------------------------------------------
    def on_start(self, share: Optional[ShareState] = None, **_: Any) -> None:
        if share is None:
            raise ValueError("SVSS-Rec requires the ShareState from SVSS-Share")
        self.share = share
        row_ints = tuple(share.row_ints)
        self._own_evals = self._plane.row_evals(row_ints)
        self.validated[self.pid] = row_ints
        self.broadcast("RECROW", row_ints)
        self._maybe_reconstruct()

    def on_message(self, sender: int, payload: tuple) -> None:
        if not payload or payload[0] != "RECROW" or len(payload) != 2:
            return
        raw = payload[1]
        # Inlined plane.validate_row_record hit path: ONE shared-cache probe
        # resolves both validation and the row's cross-point evaluations.
        # An entry answers only for the object it is stored under -- an equal
        # payload (a float alias, a tampered copy) is validated from scratch.
        try:
            record = self._row_cache.get(raw)
        except TypeError:
            record = None
        if record is None or record[0] is not raw:
            record = self._plane.validate_row_record(raw)
            if record is None:
                self.shun(sender)
                return
        row, evals = record
        received = self.received_rows
        known = received[sender]
        if known is not None:
            if known is not row and known != row:
                self.shun(sender)
            return
        received[sender] = row
        if sender == self.pid:
            return
        # Inlined _validate: the sender's row evaluated at our point, from
        # the plane's shared table (the same list every receiver of this
        # broadcast resolves); equal to ``horner(prime, row, point(pid))``.
        if evals[self.pid] == self._own_evals[sender]:
            validated = self.validated
            validated[sender] = row
            # Only an accepted row can cross the reconstruction threshold.
            if len(validated) >= self._t1 and not self.finished:
                self._maybe_reconstruct()
        else:
            # The sender's claimed row contradicts the cross-point we hold:
            # either the sender or the dealer is faulty.  Shunning the sender
            # realises the "binding or shun" disjunction of Definition 3.2.
            self.shun(sender)

    # ------------------------------------------------------------------
    def _maybe_reconstruct(self) -> None:
        if self.finished or self.share is None:
            return
        validated = self.validated
        if len(validated) < self._t1:
            return
        chosen = sorted(validated)[: self._t1]
        rows = [validated[pid] for pid in chosen]
        # Rows an honest dealer dealt to exactly these pids name its secret
        # (a lookup, equal to the interpolation below); any other set is
        # interpolated from the rows' values at 0, their constant terms.
        plane = self._plane
        secret = plane.dealt_secret(chosen, rows)
        if secret is None:
            secret = plane.reconstruct_at_zero(tuple(chosen), [row[0] for row in rows])
        self.complete(secret)
