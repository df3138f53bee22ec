"""The simulated asynchronous network.

A :class:`Network` owns the parties (:class:`~repro.net.process.Process`
objects), the multiset of in-flight messages and the scheduler.  One *step*
delivers exactly one message, chosen by the scheduler; this is the standard
formalisation of asynchrony, in which the adversary fully controls message
ordering but every message is eventually delivered.

The network is deterministic given its seed, the scheduler and the protocol
code, which makes failures reproducible from a single integer.

Hot-path design (the delivery loop is the bottleneck of every Monte-Carlo
campaign):

* **Completion counters** -- the network maintains a per-session count of
  honest completions, updated from :meth:`Protocol.complete` via
  :meth:`record_completion`.  The standard stop condition "every honest party
  finished session S" is therefore one dict lookup per delivery
  (:meth:`all_honest_finished`, :meth:`run_until_complete`) instead of the
  O(n) per-process scan the seed ran between every two deliveries (kept as
  :meth:`scan_all_honest_finished` for reference and equivalence tests).
* **Interned sessions** -- :meth:`intern_session` canonicalises session
  tuples network-wide, so the per-delivery routing dict lookup compares
  interned keys by identity and child-session tuples are shared across all
  parties instead of re-allocated per process.
* **One delivery loop** -- :meth:`run`, :meth:`run_until_complete`,
  :meth:`run_to_quiescence` and :meth:`step` are thin callers of
  :meth:`_drive_unmaterialised`, whatever observes the run.  It pops
  ``(entry, receiver)`` slots (every queue offers ``pop_entry``; a lone
  message is the one-copy fan-out ``(message, message.receiver)``) and
  delivers them without building Message objects: straight to the handler
  of a started instance, through :meth:`Process.deliver_parts` otherwise.
  Observation rides the loop instead of replacing it: the trace logs the
  popped pair (records are expanded into events when read,
  :mod:`repro.net.tracing`), the step counter is stored per delivery only
  when something reads it mid-run, and the registry's queue-depth sample, a
  director's ``on_step`` and an ``until`` condition share one wake-up step
  -- so a plain trial pays for none of them.  Every queue takes a fan-out as
  one group entry, traced or not, and holds its copies as ``(entry,
  receiver)`` slots -- the reference scan queue alone builds the Messages
  its ``choose`` reads.

The loop reproduces the seed's delivery order, traces and outputs
byte-identically per seed; ``tests/net/test_loop_matrix.py`` holds every
configuration of it to a naive reference loop kept in the tests, and
``tests/net/test_completion.py`` the counters to the per-process scan.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import ProtocolParams
from repro.errors import SimulationError
from repro.net.message import Message, SessionId
from repro.net.process import Process
from repro.net.queues import FanoutEntry, SurvivorsEntry
from repro.net.scheduler import RandomScheduler, Scheduler
from repro.net.tracing import Trace

#: Default cap on delivered messages per run; generous enough for every
#: protocol in the library at simulation scale, small enough to catch
#: accidental non-termination in tests.
DEFAULT_MAX_STEPS = 2_000_000

_CAP_ERROR = "run() exceeded {} deliveries without reaching its stop condition"
_DEADLOCK_ERROR = (
    "network is quiescent but the stop condition is not met (protocol deadlock)"
)


def _earliest(*steps: Optional[int]) -> Optional[int]:
    """The smallest of ``steps`` that is not None (None when all are)."""
    return min((step for step in steps if step is not None), default=None)


class Network:
    """Event-driven simulator of an asynchronous message-passing system."""

    def __init__(
        self,
        params: ProtocolParams,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        keep_events: bool = False,
        tracing: bool = True,
        session_table: Optional[Dict[SessionId, SessionId]] = None,
        metering: bool = True,
        metrics: Optional[object] = None,
        sinks: Optional[List[object]] = None,
    ) -> None:
        self.params = params
        self.scheduler = scheduler or RandomScheduler()
        self.seed = seed
        self.master_rng = random.Random(seed)
        self.scheduler_rng = random.Random(self.master_rng.getrandbits(64))
        #: The run's event record and its one message counter: a trace-free
        #: run still counts messages unless ``metering=False``.
        self.trace = Trace(keep_events=keep_events, enabled=tracing, metering=metering)
        if sinks:
            for sink in sinks:
                self.trace.add_sink(sink)
        #: Optional structured-metrics registry (``repro.obs.metrics``).
        self.metrics = metrics
        self.step_count = 0
        self._next_seq = 0
        #: In-flight messages, held in the scheduler's delivery-queue strategy
        #: (deque / heap / rank-indexed tree / legacy scan list).
        self._queue = self.scheduler.make_queue()
        #: Canonical representative for every session tuple seen by this
        #: network; protocols intern their session ids here so routing-dict
        #: lookups hit the identity fast path and child sessions are shared.
        #: A caller may pass a shared table so identically-shaped trials (a
        #: campaign chunk) reuse one set of interned tuples across networks.
        self._sessions: Dict[SessionId, SessionId] = (
            session_table if session_table is not None else {}
        )
        #: Lazily-built batched crypto plane (see :meth:`crypto_plane`).
        self._crypto_plane = None
        #: How the root protocol was wired, recorded by
        #: :meth:`repro.net.runtime.Simulation.run` as ``(session, factory,
        #: inputs, common_input)``.  The scenario ``restart`` transition uses
        #: it to re-open the root protocol at a restarted party; ``None``
        #: until a simulation driver sets it.
        self.root_recipe: Optional[tuple] = None
        #: Optional scenario director observing protocol lifecycle events and
        #: woken at the steps it asks for (:meth:`install_director`).  ``None``
        #: keeps every hot path on its unobserved branch.
        self.director: Optional[object] = None
        #: Party ids the adversary has controlled.  Tracked here (not read
        #: off ``process.behavior``) because a restart clears the behaviour
        #: but refunds nothing: the party stays out of the honest count.
        self._corrupted: Set[int] = set()
        #: Number of honest (never-corrupted) parties.
        self._honest_n = params.n
        #: session -> number of honest parties whose instance completed it.
        #: ``complete()`` fires at most once per (party, session), so the
        #: count reaching ``_honest_n`` is exactly the legacy all-honest scan.
        self._completions: Dict[SessionId, int] = {}
        #: Session currently watched by :meth:`run_until_complete`, and the
        #: flag set once the running drive's stop condition holds (the watched
        #: session's counter reached the honest count, or ``until`` held),
        #: letting the delivery loop test one attribute per delivery.
        self._watch_session: Optional[SessionId] = None
        self._stop = False
        # Hot-path caches: the queue and trace objects are fixed for the
        # network's lifetime (a disabled trace binds no-op hooks at
        # construction), so bound methods can be cached once.
        self._n = params.n
        self._queue_push_group = self._queue.push_group
        self._trace_on_fanout = self.trace.on_fanout
        #: Pre-bound registry hooks: completion-step recording (invoked from
        #: :meth:`record_completion`, which needs an accurate ``step_count``)
        #: and the queue-depth sampling period.
        self._obs_on_complete = None
        self._obs_sample_every = 0
        if metrics is not None:
            if getattr(metrics, "completion_steps", False):
                self._obs_on_complete = metrics.on_complete
            self._obs_sample_every = getattr(metrics, "queue_depth_every", 0)
        self.processes: List[Process] = [
            Process(pid, params, self, self.master_rng.getrandbits(64))
            for pid in range(params.n)
        ]

    # ------------------------------------------------------------------
    # Session interning.
    # ------------------------------------------------------------------
    def intern_session(self, session: SessionId) -> SessionId:
        """Return the canonical tuple for ``session`` (allocating it once)."""
        session = tuple(session)
        return self._sessions.setdefault(session, session)

    # ------------------------------------------------------------------
    # Batched crypto plane (interned beside the session table).
    # ------------------------------------------------------------------
    def crypto_plane(self):
        """The network-wide :class:`~repro.crypto.kernels.CryptoPlane`.

        Built lazily on first use (pure-message protocols never pay for the
        evaluation tables) and shared by every party of this network, which
        is what lets one dealer's row validation/evaluation serve all ``n``
        receivers.  The expensive immutable tables inside it are additionally
        shared process-wide per ``(prime, n)``.
        """
        plane = self._crypto_plane
        if plane is None:
            from repro.crypto.kernels import CryptoPlane

            params = self.params
            plane = self._crypto_plane = CryptoPlane(params.prime, params.n, params.t)
        return plane

    # ------------------------------------------------------------------
    # Scenario observation.
    # ------------------------------------------------------------------
    def install_director(self, director: object) -> None:
        """Attach a scenario director observing this network's execution.

        The director receives ``on_session_open(pid, session)`` when a party
        creates a protocol instance and ``on_complete(pid, session)`` for
        every completion.  It is also woken by the clock: ``wake_step`` is the
        earliest step at which it has work pending (``None`` for none), and
        after the first delivery with ``step >= wake_step`` the network calls
        ``on_step(step)`` -- before the stop check, however it is driven
        (:meth:`run`, :meth:`run_until_complete`, :meth:`step`) -- and reads
        ``wake_step`` again; it is otherwise read once, when a drive begins.
        A director never sees a message (a trace sink does): per delivery it
        costs an int comparison and a current ``step_count`` for its hooks.
        """
        self.director = director
        attach = getattr(director, "attach", None)
        if attach is not None:
            attach(self)

    # ------------------------------------------------------------------
    # Sending.
    # ------------------------------------------------------------------
    def submit(
        self, sender: int, receiver: int, session: SessionId, payload: tuple
    ) -> None:
        """Queue a message for asynchronous delivery.

        ``session`` and ``payload`` must be tuples; the protocol/process send
        path guarantees this, so no defensive copies are made here.  The
        Message is queued and traced as the one-copy fan-out of itself,
        exactly as :meth:`_submit_fanout` queues and traces a fan-out.
        """
        if not 0 <= receiver < self._n:
            raise SimulationError(f"message addressed to unknown party {receiver}")
        seq = self._next_seq
        self._next_seq = seq + 1
        # Message construction inlined (one slotted store per field beats a
        # constructor call on the single most-allocated object in a run).
        message = Message.__new__(Message)
        message.sender = sender
        message.receiver = receiver
        message.session = session
        message.payload = payload
        message.seq = seq
        message.kind = payload[0] if payload else None
        message.root = session[0] if session else None
        self._queue_push_group(message, self._n)
        self._trace_on_fanout(self.step_count, message, 1)

    def submit_broadcast(self, sender: int, session: SessionId, payload: tuple) -> None:
        """Queue one copy of ``payload`` for every party, in pid order.

        Byte-identical to calling :meth:`submit` for receivers ``0..n-1``
        (same sequence numbers, same queue order, same trace events) with
        the per-message overhead hoisted: the whole broadcast becomes ONE
        unmaterialised :class:`~repro.net.queues.FanoutEntry`; delivered
        copies are built only for a consumer that needs a Message, and
        undelivered copies are never allocated.  Broadcasts
        dominate the send side of the SVSS-heavy protocols, which makes this
        the hot path of :meth:`Protocol.broadcast`.
        """
        self._submit_fanout(
            sender, session, payload[0] if payload else None, payload, None, None
        )

    def submit_fanout(
        self,
        sender: int,
        session: SessionId,
        kind: str,
        values: List,
        skip: Optional[int] = None,
    ) -> None:
        """Queue ``(kind, values[r])`` for every receiver ``r`` (pid order).

        ``skip`` omits one receiver (a party never sends its own POINT to
        itself).  Byte-identical to the per-receiver :meth:`submit` loop the
        SVSS dealer/point fan-outs used to run, with the per-message call
        overhead hoisted exactly like :meth:`submit_broadcast` (one group
        entry).  ``values`` must not be mutated after submission.
        """
        self._submit_fanout(sender, session, kind, None, values, skip)

    def _submit_fanout(
        self,
        sender: int,
        session: SessionId,
        kind: Any,
        payload: Optional[tuple],
        values: Optional[List],
        skip: Optional[int],
    ) -> None:
        """One receiver-ordered fan-out: ``payload`` shared, or ``values[r]`` each.

        The queue and the trace both take it as one :class:`FanoutEntry`.
        """
        n = self._n
        seq = self._next_seq
        size = n if skip is None else n - 1
        self._next_seq = seq + size
        root = session[0] if session else None
        entry = FanoutEntry(sender, session, kind, payload, values, seq, skip, root)
        self._queue_push_group(entry, n)
        self._trace_on_fanout(self.step_count, entry, size)

    def _submit_survivors(
        self,
        sender: int,
        session: SessionId,
        kind: Any,
        payload: Optional[tuple],
        values: Optional[Dict[int, Any]],
        receivers: Tuple[int, ...],
    ) -> None:
        """The copies of a mutated fan-out to ``receivers`` (ascending), as one entry.

        Byte-identical to :meth:`submit` for each of ``receivers`` in order,
        ``payload`` shared or ``(kind, values[r])`` each -- the
        :class:`~repro.net.queues.SurvivorsEntry` that
        :meth:`Process.send_fanout` builds when an outgoing mutator is
        installed.
        """
        seq = self._next_seq
        size = len(receivers)
        self._next_seq = seq + size
        root = session[0] if session else None
        entry = SurvivorsEntry(sender, session, kind, payload, values, seq, receivers, root)
        self._queue_push_group(entry, self._n)
        self._trace_on_fanout(self.step_count, entry, size)

    # ------------------------------------------------------------------
    # Stepping.
    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[Message]:
        """The in-flight messages in send order (a snapshot, for inspection)."""
        return self._queue.snapshot()

    def step(self) -> bool:
        """Deliver one message.  Returns False when nothing is in flight."""
        if not len(self._queue):
            return False
        stop_at = self.step_count + 1
        self._drive_unmaterialised(
            None, lambda network: network.step_count >= stop_at, 1
        )
        return True

    def run(
        self,
        until: Optional[Callable[["Network"], bool]] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> int:
        """Deliver messages until ``until`` holds or the network goes quiet.

        Args:
            until: stop condition checked before every delivery; ``None``
                means "run until no messages are in flight".
            max_steps: safety cap on deliveries for this call.

        Returns:
            The number of messages delivered by this call.

        Raises:
            SimulationError: if ``max_steps`` deliveries happen without the
                stop condition being reached (likely non-termination), or if
                the network goes quiet while ``until`` is still false
                (deadlock -- typically a protocol bug or an impossible fault
                pattern).
        """
        return self._drive_unmaterialised(None, until, max_steps)

    def run_until_complete(
        self, session: SessionId, max_steps: int = DEFAULT_MAX_STEPS
    ) -> int:
        """Deliver messages until every honest party has completed ``session``.

        Semantically identical to
        ``run(until=lambda net: net.scan_all_honest_finished(session))`` --
        same delivery order, trace, return value and errors -- but the stop
        condition is one flag read per delivery (flipped by
        :meth:`record_completion`) instead of an O(n) scan over the processes.
        """
        return self._drive_unmaterialised(tuple(session), None, max_steps)

    def run_to_quiescence(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Deliver messages until none remain in flight."""
        return self._drive_unmaterialised(None, None, max_steps)

    def _drive_unmaterialised(
        self,
        watch: Optional[SessionId],
        until: Optional[Callable[["Network"], bool]],
        max_steps: int,
    ) -> int:
        """The delivery loop: one scheduler-chosen copy per iteration.

        Stops when every honest party completed ``watch``, else when
        ``until(self)`` holds (checked before the first delivery and after
        each), else -- neither given -- when nothing is in flight; returns
        the number of deliveries made.  Per delivery, in order: the trace
        record, the handler, then at a wake-up step the registry's
        queue-depth sample, the director's ``on_step`` and ``until``.

        A copy, of a fan-out or a lone message alike, is handed to its
        handler directly when nothing stands between them -- the receiver
        has no delivery hook (it is honest, or its behaviour runs the honest
        protocol and leaves deliveries alone), the session's instance exists
        and has started, and no sender can be shunned for it (the receiver
        shuns nobody, or the instance was created before its first shun).
        That is a pre-check, not a second router: every other copy is
        handled by :meth:`Process.deliver_parts`, which re-reads the
        receiver's hook and protocol table per delivery, so a director
        corrupting or restarting a party mid-run needs nothing more.
        """
        # Unless something reads ``step_count`` mid-run (the trace's hooks, a
        # director's audit log, the registry's completion steps, ``until``),
        # the counter lives in the loop variable, which also enforces the
        # cap, and is written back when the loop exits.  An empty queue
        # surfaces as ``pop_entry`` raising IndexError before any state
        # changes: a zero-cost (until raised) emptiness check.
        queue = self._queue
        pop_entry = queue.pop_entry
        rng = self.scheduler_rng
        processes = self.processes
        trace = self.trace
        tracing = trace.enabled
        log = trace.log_delivery if tracing else None
        observed = (
            tracing
            or until is not None
            or self.director is not None
            or self._obs_on_complete is not None
        )
        step = first = self.step_count
        wake, on_wake = self._alarm(first, until)
        if watch is not None:
            # Completion-driven stop: record_completion sets _stop the moment
            # the watched session's counter reaches the honest count.
            self._watch_session = watch
            self._stop = self._completions.get(watch, 0) >= self._honest_n
        trace.driving = True
        try:
            if until is not None:
                self._stop = until(self)
            if self._stop:
                return 0
            for step in range(first + 1, first + max_steps + 1):
                try:
                    entry, receiver = pop_entry(rng)
                except IndexError:
                    step -= 1  # this delivery did not happen
                    if len(queue):  # not the queue's own "empty"
                        raise
                    if watch is None and until is None:
                        return step - first
                    raise SimulationError(_DEADLOCK_ERROR) from None
                if observed:
                    self.step_count = step
                    if log is not None:
                        log((step, entry, receiver))
                values = entry.values
                payload = entry.payload if values is None else (entry.kind, values[receiver])
                session = entry.session
                process = processes[receiver]
                instance = process._protocols_get(session)
                if (
                    instance is not None
                    and instance.started
                    and process.deliver_hook is None
                    and (
                        not process._shunned_from
                        or instance.birth_index < process._shun_floor
                    )
                ):
                    instance.on_message(entry.sender, payload)
                else:
                    process.deliver_parts(entry.sender, session, payload, entry, receiver)
                if wake is not None and step >= wake:
                    wake = on_wake(step)  # type: ignore[misc]
                if self._stop:
                    return step - first
            raise SimulationError(_CAP_ERROR.format(max_steps))
        finally:
            self.step_count = step
            self._watch_session = None
            self._stop = False
            # Also when a handler raised: the trace's consumers hold the
            # events up to and including the failing delivery.
            trace.driving = False
            if trace.counting:
                trace.messages_delivered += step - first
            trace.pump()

    def _alarm(
        self, first: int, until: Optional[Callable[["Network"], bool]]
    ) -> Tuple[Optional[int], Optional[Callable[[int], Optional[int]]]]:
        """The delivery loop's one wake-up: ``(first wake step, on_wake)``.

        Shared by the registry's queue-depth sample (every
        ``queue_depth_every``-th delivery of the drive starting at step
        ``first``), the director's ``on_step`` (from its ``wake_step``) and
        ``until`` (after every delivery), so the loop pays one int comparison
        for all three -- ``(None, None)`` when none is configured.
        ``on_wake(step)`` serves those due at ``step``, in that order, and
        returns the next step any is due at.
        """
        director = self.director
        every = self._obs_sample_every
        if director is None and not every and until is None:
            return None, None
        queue_len = self._queue.__len__
        on_depth = self.metrics.on_queue_depth if every else None  # type: ignore[union-attr]
        sample_at = first + every if every else None
        director_at = None if director is None else director.wake_step

        def on_wake(step: int) -> Optional[int]:
            nonlocal sample_at, director_at
            if sample_at is not None and step >= sample_at:
                on_depth(step, queue_len())  # type: ignore[misc]
                sample_at += every
            if director_at is not None and step >= director_at:
                director.on_step(step)  # type: ignore[union-attr]
                director_at = director.wake_step  # type: ignore[union-attr]
            if until is not None:
                if until(self):
                    self._stop = True
                return step + 1
            return _earliest(sample_at, director_at)

        return (first + 1 if until is not None else _earliest(sample_at, director_at)), on_wake

    def release(self) -> None:
        """Break the reference cycles of this finished world; it cannot run again.

        Each party breaks its own (:meth:`Process.release`) and a director
        is detached (its ``detach()``, when it has one, mirrors ``attach``).
        The trace and the director stay readable, so a released run's
        message counts and audit log are those of the live one.  With no
        cycle left, reference counting frees the world when its last
        reference goes -- the cyclic collector never has to find it.
        """
        for process in self.processes:
            process.release()
        detach = getattr(self.director, "detach", None)
        if detach is not None:
            detach()

    def message_stats(self) -> Optional[Dict[str, object]]:
        """Headline message counts, read off the trace.

        With tracing on this is :meth:`Trace.summary`; with tracing off it is
        the summary's core keys only (``messages_sent``,
        ``messages_delivered``, ``messages_dropped``, ``shun_events``,
        ``sent_by_root``, ``sent_by_kind``, ``dropped_by_reason``): a
        trace-free run records no completions and keeps no events.  Returns
        None only when metering was explicitly disabled.
        """
        trace = self.trace
        if not trace.counting:
            return None
        summary = trace.summary()
        if not trace.enabled:
            del summary["completions"], summary["events_dropped"]
        return summary

    # ------------------------------------------------------------------
    # Completion and corruption bookkeeping (the O(1) stop-condition state).
    # ------------------------------------------------------------------
    def record_completion(self, pid: int, session: SessionId) -> None:
        """Count one protocol completion (called by the process layer).

        Completions of corrupted parties are ignored, matching the legacy
        per-process scan which skipped them at query time.  ``session`` must
        be the instance's own (interned) session tuple.
        """
        if pid not in self._corrupted:
            completions = self._completions
            completions[session] = count = completions.get(session, 0) + 1
            if session == self._watch_session and count >= self._honest_n:
                self._stop = True
        obs = self._obs_on_complete
        if obs is not None:
            obs(self.step_count, pid, session)
        director = self.director
        if director is not None:
            director.on_complete(pid, session)

    def register_corruption(self, process: Process) -> None:
        """Mark ``process`` as adversarial (called by :meth:`Process.corrupt`).

        Any completions the party already contributed are retracted so the
        counters keep agreeing with the honest-only scan.
        """
        pid = process.pid
        if pid in self._corrupted:
            return
        self._corrupted.add(pid)
        self._honest_n -= 1
        completions = self._completions
        for session, instance in process.protocols.items():
            if instance.finished:
                completions[session] -= 1
        # A lowered honest count can make the watched session complete
        # without any further record_completion call (corrupting the last
        # straggler mid-run): refresh the stop flag so run_until_complete
        # stops exactly where the legacy scan would.
        watched = self._watch_session
        if watched is not None and completions.get(watched, 0) >= self._honest_n:
            self._stop = True

    # ------------------------------------------------------------------
    # Convenience queries.
    # ------------------------------------------------------------------
    def honest_pids(self) -> List[int]:
        """Party ids the adversary has never controlled.

        A party restarted after a corruption (scenario ``restart``) runs
        honest code again but stays attributed to the adversary -- the
        ``ever_corrupted`` flag, not the live behaviour, is what all honest
        accounting keys on.
        """
        return [p.pid for p in self.processes if not p.ever_corrupted]

    def corrupted_pids(self) -> List[int]:
        """Party ids the adversary has (ever) controlled."""
        return [p.pid for p in self.processes if p.ever_corrupted]

    def honest_outputs(self, session: SessionId) -> Dict[int, object]:
        """Outputs of never-corrupted parties that completed ``session``."""
        outputs: Dict[int, object] = {}
        for process in self.processes:
            if process.ever_corrupted:
                continue
            instance = process.protocol(session)
            if instance is not None and instance.finished:
                outputs[process.pid] = instance.output
        return outputs

    def all_honest_finished(self, session: SessionId) -> bool:
        """True when every honest party has completed ``session``.

        Backed by the completion counters: one dict lookup, no per-process
        scan.  Agrees with :meth:`scan_all_honest_finished` at every point of
        every execution (property-tested in ``tests/net/test_completion.py``).
        """
        return self._completions.get(tuple(session), 0) >= self._honest_n

    def scan_all_honest_finished(self, session: SessionId) -> bool:
        """Reference O(n) implementation of :meth:`all_honest_finished`.

        This is the seed's stop condition, kept as the reference of the
        equivalence tests; production code uses the counter-backed version.
        """
        for process in self.processes:
            if process.ever_corrupted:
                continue
            instance = process.protocol(session)
            if instance is None or not instance.finished:
                return False
        return True
