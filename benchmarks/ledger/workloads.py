"""The six workloads: what one operation is, how it is timed and how it is checked.

Every workload drives the system through public entry points only
(``repro.api``, ``CellExecutor``, ``run_campaign``, ``BeaconService``).  A
*sample* is one timed block of operations; the measuring loop in
:mod:`benchmarks.ledger.measure` brackets each sample with calibration
passes.  Correctness is checked on every operation, outside the timed part:
safety invariants on every trial, an inline re-run for campaigns, a cold
re-run for beacon requests.

With a :class:`~benchmarks.ledger.spans.SpanRecorder` the same operation is
split at its layer boundaries from outside.  For a trial that means building
the ``Simulation`` directly with the factory the ``api.run_*`` runner uses;
the traced variant must reproduce the untraced fingerprint, which the traced
pass asserts sample by sample.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core.config import DEFAULT_PRIME, ProtocolParams
from repro.core.results import TrialAggregate
from repro.errors import ReproError, SimulationError
from repro.experiments.runner import CellExecutor, run_campaign
from repro.experiments.spec import CampaignSpec, ExperimentSpec, canonical_json
from repro.experiments.store import ResultStore
from repro.net.runtime import Simulation, SimulationResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import RingBufferSink
from repro.protocols.aba import OracleCoinSource
from repro.protocols.coinflip import CoinFlip
from repro.protocols.fba import FairByzantineAgreement
from repro.protocols.weak_coin import WeakCommonCoin
from repro.scenarios.invariants import assert_invariants
from repro.scenarios.library import get_scenario
from repro.service import BeaconRequest, BeaconService, ServicePolicy, build_requests
from repro.service.requests import canonical_payload

from benchmarks.ledger.schema import SCENARIOS
from benchmarks.ledger.spans import SpanRecorder


def derive_seed(*parts: Any) -> int:
    """A 31-bit seed that is a pure function of ``parts``."""
    text = "|".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Op:
    """One operation (``weight`` operations for a campaign) and its outcome."""

    wall_s: float
    steps: int
    msgs: Optional[int]
    outputs: str  # canonical text of the honest outputs
    loop_s: float = 0.0  # time inside the delivery loop (SimulationResult.elapsed_s)
    weight: int = 1
    ok: bool = True
    error: str = ""
    #: Workload-private handle: campaign sample index, beacon pool position.
    key: int = -1

    def line(self) -> str:
        """The text hashed into the workload digest."""
        return f"{self.steps}|{self.msgs}|{self.outputs}"


@dataclass
class Sample:
    """One timed block: its wall time and the operations it ran."""

    wall_s: float
    ops: List[Op] = field(default_factory=list)


@dataclass(frozen=True)
class Profile:
    """The plain trial that stands for a workload in the generic layer probes."""

    protocol: str
    n: int
    prime: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    tracing: bool = False

    def kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.params)
        if self.prime is not None:
            kwargs["prime"] = self.prime
        return kwargs

    def at(self, n: int) -> "Profile":
        """The same trial at ``n`` parties (smoke sizes)."""
        params = dict(self.params)
        if "inputs" in params:
            params["inputs"] = {pid: pid % 2 for pid in range(n)}
        return Profile(self.protocol, n, self.prime, params, self.tracing)


def outputs_text(result: SimulationResult) -> str:
    return repr(sorted(result.outputs.items()))


def op_from_result(result: SimulationResult, wall_s: float) -> Op:
    stats = result.message_stats
    return Op(
        wall_s=wall_s,
        steps=result.steps,
        msgs=None if stats is None else stats["messages_sent"],
        outputs=outputs_text(result),
        loop_s=result.elapsed_s,
    )


def check_invariants(op: Op, result: SimulationResult, protocol: str,
                     params: Optional[Dict[str, Any]] = None,
                     step_bound: Optional[int] = None) -> None:
    try:
        assert_invariants(result, protocol, params=params or {}, step_bound=step_bound)
    except ReproError as exc:
        op.ok = False
        op.error = str(exc)


def _loop_span(spans: SpanRecorder, parent_end: float, result: SimulationResult) -> None:
    """Record the delivery loop as the tail of the span that just closed.

    ``Simulation.run`` times its loop itself (``elapsed_s``) and does only
    constant work after it, so the loop is the last ``elapsed_s`` seconds of
    the enclosing span to within microseconds.
    """
    spans.child_of_last("net.delivery_loop", parent_end - result.elapsed_s, parent_end)


class Workload:
    """Base class: subclasses define ``setup``/``sample`` and, if needed, ``verify``."""

    name = ""
    profile = Profile("weak_coin", 4)
    #: Samples every round runs whatever the time budget; these are the ones
    #: the digest, ``steps_per_op`` and ``msgs_per_op`` are computed over.
    pinned_samples = 2
    smoke_samples = 2
    #: Processes executing trials at once: the calibration runs on as many,
    #: and ``net.loop_share`` is per process.
    parallelism = 1

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        #: Trial seeds that were derived and not used, with the reason.
        self.passed_over: List[str] = []
        if smoke:
            self.profile = self.profile.at(min(self.profile.n, 4))

    def setup(self) -> None:
        """Build whatever outlives one operation (counted in ``setup_s``)."""

    def sample(self, index: int, spans: Optional[SpanRecorder] = None) -> Sample:
        raise NotImplementedError

    def verify(self, samples: Sequence[Sample]) -> None:
        """Checks that are too slow for the measuring loop; marks ``op.ok``."""

    def close(self) -> None:
        """Stop every process the workload started."""

    def op_seed(self, index: int, position: int = 0) -> int:
        return derive_seed(self.seed, self.name, index, position)


# ----------------------------------------------------------------------
# Plain trials: one api.run_* call per operation.
class TrialWorkload(Workload):
    """``ops_per_sample`` plain trials of one protocol per sample."""

    ops_per_sample = 1
    protocol = ""
    n = 0

    def run_plain(self, seed: int) -> SimulationResult:
        raise NotImplementedError

    def build_simulation(self, seed: int) -> Tuple[Simulation, tuple, Callable, Dict[str, Any]]:
        """``(simulation, session, factory, run kwargs)`` exactly as ``run_plain`` wires them."""
        raise NotImplementedError

    def invariant_params(self) -> Dict[str, Any]:
        return {}

    def step_bound(self) -> int:
        """Delivery cap of the termination check.

        The library's default, 120 n^2, is sized for one weak coin; a strong
        coin at n=16 takes about 150 n^2 deliveries and FBA about 700 n^2.
        """
        return 2000 * self.n * self.n

    def sample(self, index: int, spans: Optional[SpanRecorder] = None) -> Sample:
        ops: List[Op] = []
        for position in range(self.ops_per_sample):
            seed = self.op_seed(index, position)
            started = time.perf_counter()
            result = self.run_plain(seed) if spans is None else self._run_traced(seed, spans)
            op = op_from_result(result, time.perf_counter() - started)
            check_invariants(op, result, self.protocol, self.invariant_params(), self.step_bound())
            ops.append(op)
        return Sample(sum(op.wall_s for op in ops), ops)

    def _run_traced(self, seed: int, spans: SpanRecorder) -> SimulationResult:
        with spans.span(f"op.{self.name}", new_trace=True):
            with spans.span("net.world_build"):
                simulation, session, factory, kwargs = self.build_simulation(seed)
                simulation.build_network()
            with spans.span("protocols.start_and_run") as run_span:
                result = simulation.run(session, factory, **kwargs)
            _loop_span(spans, run_span.end, result)
            with spans.span("core.aggregate_add"):
                TrialAggregate().add(result)
        return result


class CoinN32(TrialWorkload):
    name = "coin_n32"
    protocol = "weak_coin"
    profile = Profile("weak_coin", 32, prime=1_000_003)
    pinned_samples = 4
    N, PRIME = 32, 1_000_003

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.n = 8 if smoke else self.N

    def run_plain(self, seed: int) -> SimulationResult:
        return api.run_weak_coin(n=self.n, seed=seed, prime=self.PRIME, tracing=False)

    def build_simulation(self, seed: int):
        params = ProtocolParams.for_parties(self.n, prime=self.PRIME)
        simulation = Simulation(params=params, seed=seed, tracing=False)
        return simulation, ("weak_coin",), WeakCommonCoin.factory(), {}


class FbaN8(TrialWorkload):
    name = "fba_n8"
    protocol = "fba"
    ops_per_sample = 3
    pinned_samples = 5
    N = 8
    profile = Profile(
        "fba", N,
        params={"inputs": {pid: pid % 2 for pid in range(N)}, "coinflip_rounds": 1},
    )

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.n = 4 if smoke else self.N
        self.inputs = {pid: pid % 2 for pid in range(self.n)}
        if smoke:
            self.ops_per_sample = 1

    def invariant_params(self) -> Dict[str, Any]:
        return {"inputs": self.inputs}

    def run_plain(self, seed: int) -> SimulationResult:
        return api.run_fba(n=self.n, inputs=self.inputs, seed=seed,
                           coinflip_rounds=1, tracing=False)

    def build_simulation(self, seed: int):
        simulation = Simulation(params=ProtocolParams.for_parties(self.n), seed=seed,
                                tracing=False)
        factory = FairByzantineAgreement.factory(
            coin_source=OracleCoinSource(seed), coinflip_rounds_override=1
        )
        inputs = {pid: {"value": value} for pid, value in self.inputs.items()}
        return simulation, ("fba",), factory, {"inputs": inputs}


class CoinN16Observed(TrialWorkload):
    name = "coin_n16_observed"
    protocol = "coinflip"
    pinned_samples = 8
    N = 16
    profile = Profile("coinflip", N, params={"rounds": 1}, tracing=True)

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.n = 4 if smoke else self.N

    def run_plain(self, seed: int) -> SimulationResult:
        return api.run_coinflip(n=self.n, seed=seed, rounds=1, tracing=True,
                                metrics=True, sinks=[RingBufferSink()])

    def build_simulation(self, seed: int):
        simulation = Simulation(params=ProtocolParams.for_parties(self.n), seed=seed,
                                tracing=True, metrics=True, sinks=[RingBufferSink()])
        factory = CoinFlip.factory(epsilon=0.25, rounds_override=1,
                                   coin_source=OracleCoinSource(seed))
        return simulation, ("coinflip",), factory, {}


# ----------------------------------------------------------------------
#: Times one scenario trial may pass over a seed on which the attack ends in
#: a quiescent network and derive the next (see ``ScenarioMixN16.run_attack``).
MAX_REDERIVATIONS = 2


def scenario_cell(scenario: str, n: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=scenario, protocol=get_scenario(scenario).protocol, n=n,
        seeds=[0], scenario=scenario, params={"tracing": False},
    )


class ScenarioMixN16(Workload):
    """One trial of each of six library attacks per sample, invariants on."""

    name = "scenario_mix_n16"
    profile = Profile("weak_coin", 16)
    pinned_samples = 5
    N = 16

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.n = 4 if smoke else self.N
        self.executors: Dict[str, CellExecutor] = {}

    def setup(self) -> None:
        for scenario in SCENARIOS:
            self.executors[scenario] = CellExecutor(scenario_cell(scenario, self.n))

    def run_attack(self, scenario: str, *key: Any,
                   spans: Optional[SpanRecorder] = None) -> Tuple[int, SimulationResult, float]:
        """One trial of ``scenario`` on the seed derived from ``key``: ``(seed, result, wall seconds)``.

        SVSS is a *shunning* VSS: under an active attack one reconstruction
        may never finish (the paper only promises that a new pair then
        shuns), and a party restarted from a blank slate may never catch up.
        At n=16 ``restart-storm`` therefore ends in ``SimulationError:
        network is quiescent`` on about 1 seed in 80 and ``tamper-on-share``
        on about 1 in 1 500.  A benchmark's operations must not fail, so such
        a seed is passed over -- untimed, and listed in the run's output --
        and the next one derived.  Anything else, or a third deadlock in a
        row, is a failed operation.
        """
        executor = self.executors[scenario]
        for attempt in itertools.count():
            seed = derive_seed(self.seed, self.name, *key, attempt)
            started = time.perf_counter()
            try:
                if spans is None:
                    result = executor.run(seed)
                else:
                    result = self._run_traced(executor, seed, spans)
            except SimulationError as exc:
                if "quiescent" not in str(exc) or attempt == MAX_REDERIVATIONS:
                    raise
                self.passed_over.append(f"{scenario} n={self.n} seed {seed}")
            else:
                return seed, result, time.perf_counter() - started

    def sample(self, index: int, spans: Optional[SpanRecorder] = None) -> Sample:
        ops: List[Op] = []
        # The six attacks of a sample share a trial seed (attempt 0 of ``index``).
        for scenario in SCENARIOS:
            started = time.perf_counter()
            try:
                _, result, wall_s = self.run_attack(scenario, index, spans=spans)
            except ReproError as exc:  # an invariant violation inside executor.run
                ops.append(Op(time.perf_counter() - started, 0, 0, "", ok=False,
                              error=f"{scenario}: {exc}"))
                continue
            ops.append(op_from_result(result, wall_s))
        return Sample(sum(op.wall_s for op in ops), ops)

    @staticmethod
    def _run_traced(executor: CellExecutor, seed: int, spans: SpanRecorder) -> SimulationResult:
        """``CellExecutor.run`` step by step, from its public parts."""
        runtime = executor.scenario_runtime
        cell = executor.cell
        with spans.span(f"op.scenario.{cell.scenario}", new_trace=True):
            with spans.span("scenarios.build_director"):
                director = runtime.build_director()
            with spans.span("scenarios.build_scheduler"):
                scheduler = runtime.build_scheduler()
            with spans.span("protocols.trial") as run_span:
                result = executor.runner(
                    n=cell.n, seed=seed, scheduler=scheduler,
                    corruptions=executor.corruptions or None, director=director,
                    session_table=executor.session_table, **executor.kwargs,
                )
            _loop_span(spans, run_span.end, result)
            with spans.span("scenarios.invariants"):
                assert_invariants(result, cell.protocol,
                                  context=f"cell {cell.name!r} seed {seed}",
                                  params=executor.kwargs)
        return result


# ----------------------------------------------------------------------
class CampaignSmallW2(Workload):
    """One whole campaign (pool spawn included) per sample; batch."""

    name = "campaign_small_w2"
    profile = Profile("coinflip", 4, params={"rounds": 3})
    pinned_samples = 2
    parallelism = 2
    WORKERS = 2
    #: Seeds per cell.  ISSUE 11 sized this at 150 (1.6 s a campaign); the
    #: driver's time cap leaves about 3 s of measuring per process, so the
    #: seed count was cut and the cells' n were kept.
    SEEDS_PER_CELL = 40

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.seeds_per_cell = 4 if smoke else self.SEEDS_PER_CELL
        self._stores = 0
        self.first_chunk_s: List[float] = []
        self.runner_metrics = MetricsRegistry(queue_depth_every=0, completion_steps=False)
        self.specs: Dict[int, CampaignSpec] = {}
        self.results: Dict[int, Dict[str, TrialAggregate]] = {}

    def spec(self, index: int) -> CampaignSpec:
        seeds = [derive_seed(self.seed, self.name, index, j) for j in range(self.seeds_per_cell)]
        off = {"tracing": False}
        return CampaignSpec(name=f"ledger-{index}", cells=[
            ExperimentSpec("coinflip-n4", "coinflip", 4, seeds, params={"rounds": 3, **off}),
            ExperimentSpec("aba-n8", "aba", 8, seeds,
                           params={"inputs": {str(pid): pid % 2 for pid in range(8)}, **off}),
            ExperimentSpec("ambush-n4", "weak_coin", 4, seeds, scenario="dealer-ambush",
                           params=dict(off)),
            ExperimentSpec("svss-n8", "svss", 8, seeds, params={"secret": 7, **off}),
        ])

    def store(self) -> ResultStore:
        self._stores += 1
        return ResultStore(os.path.join(self.scratch, f"store-{self._stores}.json"))

    def sample(self, index: int, spans: Optional[SpanRecorder] = None) -> Sample:
        spec = self.spec(index)
        store = self.store()
        marks: List[float] = []

        def run() -> Dict[str, TrialAggregate]:
            return run_campaign(spec, workers=self.WORKERS, store=store,
                                progress=lambda _p: marks.append(time.perf_counter()),
                                metrics=self.runner_metrics)

        if spans is None:
            started = time.perf_counter()
            results = run()
            ended = time.perf_counter()
        else:
            with spans.span(f"op.{self.name}", new_trace=True) as op_span:
                results = run()
            started, ended = op_span.start, op_span.end
            # Seen from outside, a campaign is: validate + spawn + first chunk,
            # then the steady chunk stream, then cell promotion and teardown.
            spans.child_of_last("experiments.spawn_to_first_chunk", started, marks[0])
            spans.child_of_last("experiments.chunk_stream", marks[0], marks[-1])
            spans.child_of_last("experiments.finalize_teardown", marks[-1], ended)
        self.first_chunk_s.append(marks[0] - started)
        self.specs[index] = spec
        self.results[index] = results
        complete = len(results) == len(spec.cells)
        op = Op(
            wall_s=ended - started,
            steps=sum(a.total_steps for a in results.values()),
            msgs=sum(a.total_messages for a in results.values()),
            outputs=hashlib.sha256(canonical_json(
                {name: results[name].to_dict() for name in sorted(results)}
            ).encode()).hexdigest(),
            loop_s=sum(a.total_elapsed_s for a in results.values()),
            weight=spec.trials,
            ok=complete,
            error="" if complete else "quarantined cells",
            key=index,
        )
        return Sample(op.wall_s, [op])

    def verify(self, samples: Sequence[Sample]) -> None:
        """The first campaign must equal an inline ``workers=1`` run, cell by cell."""
        op = samples[0].ops[0]
        inline = run_campaign(self.specs[op.key], workers=1)
        parallel = self.results[op.key]
        if {n: a.to_dict() for n, a in inline.items()} != \
                {n: a.to_dict() for n, a in parallel.items()}:
            op.ok = False
            op.error = "parallel campaign differs from the inline run"


# ----------------------------------------------------------------------
class BeaconClosedN4(Workload):
    """Closed loop, 2 clients, blocks of requests through a resident 2-shard service."""

    name = "beacon_closed_n4"
    profile = Profile("weak_coin", 4)
    pinned_samples = 3
    parallelism = 2
    CLIENTS = 2
    BLOCK = 500
    POOL = 600
    N = 4

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        super().__init__(seed, smoke, scratch)
        self.block = 40 if smoke else self.BLOCK
        self.pool_size = 24 if smoke else self.POOL
        self.service: Optional[BeaconService] = None
        self.pool: List[BeaconRequest] = []
        self.start_s = 0.0
        self.cold_s: List[float] = []
        self._issued = 0
        #: pool position -> (canonical payload text, messages sent, loop seconds)
        self._oracle: Dict[int, Tuple[str, int, float]] = {}

    def build_pool(self) -> List[BeaconRequest]:
        pool = build_requests(self.pool_size, n=self.N, protocols=("weak_coin", "aba"),
                              seed_base=derive_seed(self.seed, self.name, "pool"))
        for request in pool:
            if request.protocol == "aba":
                # Routing hashes (protocol, n, params.prime).  weak_coin and
                # aba at n=4 both hash to shard 1 of 2; naming the library's
                # default prime changes nothing but the route, so both shards
                # serve and 2 clients do not queue behind one another by
                # construction.
                request.params["prime"] = DEFAULT_PRIME
        return pool

    def setup(self) -> None:
        self.pool = self.build_pool()
        started = time.perf_counter()
        self.service = BeaconService(ServicePolicy(shards=2, queue_depth=64)).start()
        self.start_s = time.perf_counter() - started
        # The first request of each shape builds its executor in the shard.
        for position in (0, 1):
            cold = self._request(-1, position)
            began = time.perf_counter()
            response = self.service.call(cold, timeout_s=60)
            self.cold_s.append(time.perf_counter() - began)
            if not response.ok:
                raise RuntimeError(f"beacon warm-up failed: {response.to_dict()}")

    def _request(self, index: int, position: int) -> BeaconRequest:
        source = self.pool[position]
        self._issued += 1
        return BeaconRequest(protocol=source.protocol, n=source.n, seed=source.seed,
                             params=dict(source.params),
                             request_id=f"b{index}-{self._issued}")

    def sample(self, index: int, spans: Optional[SpanRecorder] = None) -> Sample:
        if spans is None:
            return self.closed_loop(index, self.CLIENTS)
        with spans.span(f"op.{self.name}.block", new_trace=True):
            return self.closed_loop(index, self.CLIENTS, spans)

    def closed_loop(self, index: int, clients: int,
                    spans: Optional[SpanRecorder] = None) -> Sample:
        """``block`` requests with ``clients`` in flight: the next is sent only when one returns."""
        service = self.service
        assert service is not None
        offset = derive_seed(self.seed, self.name, index) % self.pool_size
        inflight: Dict[str, Tuple[float, int, int]] = {}
        #: By send order, so that the digest does not depend on which of two
        #: requests in flight happened to return first.
        ops: List[Optional[Op]] = [None] * self.block
        sent = done = 0
        clock = time.perf_counter
        started = clock()
        while done < self.block:
            while len(inflight) < clients and sent < self.block:
                position = (offset + sent) % self.pool_size
                request = self._request(index, position)
                began = clock()
                if spans is None:
                    shed = service.submit(request)
                else:
                    with spans.span("service.submit"):
                        shed = service.submit(request)
                if shed is not None:
                    ops[sent] = Op(0.0, 0, 0, "", ok=False, error="shed")
                    done += 1
                else:
                    inflight[request.request_id] = (began, position, sent)
                sent += 1
            if spans is None:
                service.poll()
            else:
                with spans.span("service.poll"):
                    service.poll()
            for request_id in list(inflight):
                response = service.take_response(request_id)
                if response is None:
                    continue
                ended = clock()
                began, position, slot = inflight.pop(request_id)
                if spans is not None:
                    spans.add("service.request", began, ended)
                payload = response.payload or {}
                ops[slot] = Op(ended - began, int(payload.get("steps", 0)), None,
                               canonical_json(payload), ok=response.ok,
                               error="" if response.ok else str(response.message),
                               key=position)
                done += 1
        return Sample(clock() - started, [op for op in ops if op is not None])

    def oracle(self, position: int) -> Tuple[str, int, float]:
        """``cold_payload`` of one pool request, plus what the payload leaves out."""
        entry = self._oracle.get(position)
        if entry is None:
            request = self.pool[position]
            result = CellExecutor(request.cell()).run(request.seed)
            stats = result.message_stats or {}
            entry = (canonical_json(canonical_payload(result)),
                     int(stats.get("messages_sent", 0)), result.elapsed_s)
            self._oracle[position] = entry
        return entry

    def verify(self, samples: Sequence[Sample]) -> None:
        """Every OK payload must equal a cold one-shot re-run, byte for byte."""
        for sample in samples:
            for op in sample.ops:
                if not op.ok:
                    continue
                expected, msgs, loop_s = self.oracle(op.key)
                op.msgs = msgs
                op.loop_s = loop_s
                if op.outputs != expected:
                    op.ok = False
                    op.error = "payload differs from cold_payload"

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


REGISTRY: Dict[str, type] = {
    cls.name: cls
    for cls in (CoinN32, FbaN8, CoinN16Observed, ScenarioMixN16, CampaignSmallW2, BeaconClosedN4)
}
