"""High-level simulation driver.

:class:`Simulation` wires one root protocol per party (honest parties run the
real protocol, corrupted parties run an adversarial behaviour), runs the
network until every honest party has produced an output, and returns a
structured :class:`SimulationResult`.

This is the layer the public API (``repro.core.api``), the examples and the
benchmarks build on.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import ProtocolParams
from repro.errors import ConfigurationError, SimulationError
from repro.net.message import SessionId
from repro.net.network import DEFAULT_MAX_STEPS, Network
from repro.net.process import Process
from repro.net.protocol import Protocol
from repro.net.scheduler import Scheduler

#: ``factory(process, session) -> Protocol``
ProtocolFactory = Callable[[Process, SessionId], Protocol]
#: ``behavior_factory(process) -> Behavior`` (imported lazily to avoid cycles)
BehaviorFactory = Callable[[Process], Any]


@dataclass
class SimulationResult:
    """Outcome of one simulated execution.

    Attributes:
        session: the root session that was run.
        outputs: mapping of honest party id to its protocol output.
        steps: number of messages delivered during the run.
        network: the network object, for inspection of the trace.
        elapsed_s: wall-clock seconds of the delivery loop (advisory; the
            only non-deterministic field -- aggregation keeps it out of the
            byte-identical statistics and reports it separately as
            deliveries/sec throughput).
    """

    session: SessionId
    outputs: Dict[int, Any]
    steps: int
    network: Network
    elapsed_s: float = 0.0
    #: Snapshot of the structured-metrics registry (``repro.obs.metrics``)
    #: taken at the end of the run, or None when no registry was attached.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def values(self) -> List[Any]:
        """Honest outputs in party-id order."""
        return [self.outputs[pid] for pid in sorted(self.outputs)]

    @cached_property
    def _distinct_outputs(self) -> Dict[str, Any]:
        """``repr(value) -> value`` over the honest outputs, computed once.

        ``agreed_value`` and ``disagreement`` are read per trial by every
        aggregation loop; keying distinctness by ``repr`` (values may be
        unhashable) is the expensive part, so it is cached on the result.
        The outputs of a finished run never change, making the cache safe.
        """
        return {repr(v): v for v in self.outputs.values()}

    @property
    def agreed_value(self) -> Any:
        """The single honest output value.

        Raises:
            ValueError: if honest parties disagree (useful in tests asserting
                agreement) or nobody produced an output.
        """
        distinct = self._distinct_outputs
        if not distinct:
            raise ValueError("no honest party produced an output")
        if len(distinct) > 1:
            raise ValueError(f"honest parties disagree: {self.outputs!r}")
        return next(iter(distinct.values()))

    @property
    def disagreement(self) -> bool:
        """True when two honest parties output different values."""
        return len(self._distinct_outputs) > 1

    def release(self) -> None:
        """Free this run's world now, not at the cyclic collector's next pass.

        Breaks the world's reference cycles (:meth:`Network.release`): the
        network and its parties, each party and its protocol tree, a
        corrupted party and its behaviour, a director and its network.
        Reference counting then frees the world when the result goes.  The
        outputs, steps, metrics, message counts and director log read the
        same afterwards; the parties and their protocol instances are gone,
        and the network cannot run again.  Idempotent.
        """
        self.network.release()

    @property
    def trace(self):
        """The network trace (message counts, shun events, completions)."""
        return self.network.trace

    @property
    def message_stats(self) -> Optional[Dict[str, Any]]:
        """Headline message counts, read off the trace.

        ``Trace.summary()`` when tracing was on, its core keys when tracing
        was off (see :meth:`~repro.net.network.Network.message_stats`); None
        only when metering was explicitly disabled.
        """
        return self.network.message_stats()


@dataclass
class Simulation:
    """Builder/runner for a single protocol execution.

    Typical use::

        sim = Simulation(ProtocolParams.for_parties(4), seed=7)
        sim.corrupt(3, CrashBehavior.factory())
        result = sim.run(("aba",), make_aba_factory(), inputs={0: 1, 1: 0, 2: 1})
    """

    params: ProtocolParams
    scheduler: Optional[Scheduler] = None
    seed: int = 0
    keep_events: bool = False
    tracing: bool = True
    max_steps: int = DEFAULT_MAX_STEPS
    #: Optional scenario director (see :mod:`repro.scenarios.engine`): an
    #: observer installed on the network that may corrupt parties or drive
    #: fault-timeline transitions mid-run.
    director: Optional[Any] = None
    #: Optional shared session-intern table.  Campaign chunks pass one table
    #: across same-topology trials so interned session tuples are allocated
    #: once per chunk instead of once per trial.
    session_table: Optional[Dict[SessionId, SessionId]] = None
    #: What a trace-free run *reports*, not how it runs: the trace counts
    #: messages whether or not it records events (campaigns keep the fast
    #: path and still report message counts); False with tracing off leaves
    #: ``message_stats`` as None.
    metering: bool = True
    #: Structured-metrics registry: ``True`` attaches a default
    #: :class:`repro.obs.metrics.MetricsRegistry`, or pass a configured
    #: instance.  The snapshot lands on ``SimulationResult.metrics``.
    metrics: Optional[Any] = None
    #: Streaming trace sinks (``repro.obs.sinks``) attached to the trace at
    #: network construction; requires ``tracing=True``.  Sinks are closed
    #: (flushed) when the run finishes.
    sinks: Optional[List[Any]] = None
    _corruptions: Dict[int, BehaviorFactory] = field(default_factory=dict)
    network: Optional[Network] = None

    def corrupt(self, pid: int, behavior_factory: BehaviorFactory) -> "Simulation":
        """Mark ``pid`` as corrupted, controlled by ``behavior_factory``."""
        if not self.params.is_valid_party(pid):
            raise ConfigurationError(f"cannot corrupt unknown party {pid}")
        self._corruptions[pid] = behavior_factory
        if len(self._corruptions) > self.params.t:
            raise ConfigurationError(
                f"cannot corrupt more than t={self.params.t} parties "
                f"(requested {len(self._corruptions)})"
            )
        return self

    def build_network(self) -> Network:
        """Create the network and apply corruptions (idempotent)."""
        if self.network is None:
            if self.metrics is True:
                from repro.obs.metrics import MetricsRegistry

                self.metrics = MetricsRegistry()
            self.network = Network(
                self.params,
                scheduler=self.scheduler,
                seed=self.seed,
                keep_events=self.keep_events,
                tracing=self.tracing,
                session_table=self.session_table,
                metering=self.metering,
                metrics=self.metrics,
                sinks=self.sinks,
            )
            for pid, factory in self._corruptions.items():
                process = self.network.processes[pid]
                process.corrupt(factory(process))
            if self.director is not None:
                self.network.install_director(self.director)
        return self.network

    def run(
        self,
        session: SessionId,
        factory: ProtocolFactory,
        inputs: Optional[Dict[int, Dict[str, Any]]] = None,
        common_input: Optional[Dict[str, Any]] = None,
        until: Optional[Callable[[Network], bool]] = None,
        run_to_quiescence: bool = False,
    ) -> SimulationResult:
        """Run ``factory`` as the root protocol at every honest party.

        Args:
            session: root session id, e.g. ``("fba",)``.
            factory: protocol factory applied at every honest party.
            inputs: per-party keyword arguments passed to ``on_start``.
            common_input: keyword arguments passed to every party's
                ``on_start`` (merged under per-party inputs).
            until: custom stop condition; default is "all honest parties
                completed the root session".
            run_to_quiescence: after the stop condition holds, keep delivering
                the remaining messages (useful when inspecting full traces).
        """
        session = tuple(session)
        network = self.build_network()
        registry = self.metrics
        if registry is not None:
            # Process-wide crypto tables (eval plan, Lagrange LRU) persist
            # across trials: snapshot them before any protocol work so the
            # final report is a per-run delta.
            registry.capture_baseline(network)
        inputs = inputs or {}
        common_input = common_input or {}
        # Record how the root protocol is wired so the scenario ``restart``
        # transition can re-open it at a restarted party mid-run.
        network.root_recipe = (session, factory, inputs, common_input)
        for process in network.processes:
            if process.is_corrupted and not getattr(
                process.behavior, "runs_honest_protocol", False
            ):
                continue
            kwargs = dict(common_input)
            kwargs.update(inputs.get(process.pid, {}))
            instance = process.create_protocol(session, factory)
            if not instance.started:
                instance.start(**kwargs)

        # The cyclic collector is paused while the network runs: trial garbage
        # keeps tripping generation-0 collections that rescan the long-lived
        # network/process/protocol graph, which cannot die mid-run (the
        # simulation holds it).  Re-enabled as soon as the run returns; a host
        # that runs with the collector off is left that way.
        pause = gc.isenabled()
        if pause:
            gc.disable()
        started_at = time.perf_counter()
        try:
            if until is None:
                # Completion-driven fast path: O(1) counter check per delivery
                # instead of polling a per-process scan (same stop point, same
                # delivery order).
                steps = network.run_until_complete(session, max_steps=self.max_steps)
            else:
                steps = network.run(until=until, max_steps=self.max_steps)
            if run_to_quiescence:
                steps += network.run_to_quiescence(max_steps=self.max_steps)
        except SimulationError as error:
            error.network = network
            raise
        finally:
            elapsed = time.perf_counter() - started_at
            if pause:
                gc.enable()
            network.trace.close_sinks()
        return SimulationResult(
            session=session,
            outputs=network.honest_outputs(session),
            steps=network.step_count,
            network=network,
            elapsed_s=elapsed,
            metrics=None if registry is None else registry.finalize(network),
        )
