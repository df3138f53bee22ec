"""Per-layer probes: where, inside one operation, the time and the work go.

Run by the traced pass after its samples.  Every probe calls a layer's
public functions directly at the workload's operating point -- its party
count, field prime and mean in-flight depth, read off its
:class:`~benchmarks.ledger.workloads.Profile` trial -- so a unit cost here
can be multiplied by the count the same pass observed.  Per-layer metrics
explain; they carry no bound and are never gated.

A layer the workload never enters reports 0 for that layer's own metrics
(``service.*`` outside the beacon, the campaign rows of ``experiments.*``
outside the campaign, ``scenarios.*`` outside the scenario mix).

``net.bare_share``, ``crypto.est_share`` and ``protocols.residual_share``
sum to 1 by construction; the first two multiply unit costs measured in
isolation by counts, so all three are estimates.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import pickle
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core.config import DEFAULT_PRIME, ProtocolParams, max_faults
from repro.core.results import TrialAggregate
from repro.errors import SimulationError
from repro.crypto.kernels import CryptoPlane, get_eval_plan
from repro.experiments.registry import RUNNERS
from repro.experiments.runner import DEFAULT_CHUNK_TRIALS, CellExecutor, run_campaign
from repro.experiments.spec import ExperimentSpec
from repro.net.network import Network
from repro.net.runtime import Simulation, SimulationResult
from repro.net.scheduler import RandomScheduler, Scheduler, delay_from_parties
from repro.obs.schema import event_to_jsonable
from repro.obs.sinks import RingBufferSink
from repro.scenarios.engine import ScenarioRuntime
from repro.scenarios.invariants import assert_invariants
from repro.scenarios.library import get_scenario
from repro.service import BeaconRequest
from repro.service.requests import canonical_payload
from repro.service.shard import ShardState

from benchmarks.ledger.measure import quantile
from benchmarks.ledger.schema import LAYER_NAMES, SCENARIOS
from benchmarks.ledger.workloads import (
    BeaconClosedN4,
    CampaignSmallW2,
    Profile,
    Sample,
    ScenarioMixN16,
    Workload,
    derive_seed,
)

#: Seconds a micro-probe may spend repeating its call (smoke mode: one call).
PROBE_BUDGET_S = 0.12


class Prober:
    """Times micro-probes: each call is repeated for ``budget_s`` seconds, at least ``min_calls`` times."""

    def __init__(self, budget_s: float, min_calls: int) -> None:
        self.budget_s = budget_s
        self.min_calls = min_calls

    def per_call(self, fn: Callable[[], Any], calls_per_fn: int = 1,
                 prepare: Optional[Callable[[], Any]] = None) -> float:
        """Median seconds of one call, where ``fn`` makes ``calls_per_fn`` of them.

        ``prepare`` runs, untimed, before every timed ``fn``.
        """
        times: List[float] = []
        started = time.perf_counter()
        while len(times) < self.min_calls or time.perf_counter() - started < self.budget_s:
            if prepare is not None:
                prepare()
            begin = time.perf_counter()
            fn()
            times.append(time.perf_counter() - begin)
        return statistics.median(times) / calls_per_fn


def run_profile(profile: Profile, seed: int, **overrides: Any) -> SimulationResult:
    kwargs = profile.kwargs()
    kwargs.setdefault("tracing", profile.tracing)
    kwargs.update(overrides)
    return RUNNERS.get(profile.protocol)(n=profile.n, seed=seed, **kwargs)


def timed_profile(profile: Profile, seeds: Sequence[int], **overrides: Any) -> float:
    """Summed wall seconds of the profile trial over ``seeds``."""
    gc.collect()
    total = 0.0
    for seed in seeds:
        began = time.perf_counter()
        run_profile(profile, seed, **overrides)
        total += time.perf_counter() - began
    return total


# ----------------------------------------------------------------------
def net_probes(prober: Prober, profile: Profile, depth: int) -> Dict[str, float]:
    n = profile.n
    params = ProtocolParams.for_parties(n, prime=profile.prime or DEFAULT_PRIME)
    #: Deliveries per timed drain: the queue runs from depth+steps down to depth.
    steps = min(4000, max(200, depth))

    def bare(scheduler: Scheduler, tracing: bool) -> float:
        """Pop-and-deliver cost in the fused loop, no protocol hosted, near ``depth`` in flight.

        The queue is topped up by broadcasts (untimed) -- the form nearly all
        traffic of a real trial is sent in -- and ``run(max_steps=...)``
        delivers exactly that many messages before it raises.
        """
        network = Network(params, scheduler=scheduler, seed=0, tracing=tracing)
        broadcasts = itertools.count(1)
        sent = 0

        def refill() -> None:
            nonlocal sent
            while sent - network.step_count < depth + steps:
                sent = next(broadcasts) * n
                network.submit_broadcast(0, ("bench",), ("M", 0))

        def drain() -> None:
            try:
                network.run(max_steps=steps)
            except SimulationError:
                pass

        return prober.per_call(drain, steps, prepare=refill) * 1e9

    def fanout() -> float:
        network = Network(params, seed=0, tracing=False)
        broadcasts = 500

        def loop() -> None:
            submit = network.submit_broadcast
            for index in range(broadcasts):
                submit(index % n, ("bench",), ("M", index))

        return prober.per_call(loop, broadcasts * n) * 1e9

    seeds = itertools.count()
    return {
        "net.bare_delivery_random_ns": bare(RandomScheduler(), False),
        # The delayed party's traffic sits in the queue's second class.
        "net.bare_delivery_twoclass_ns": bare(delay_from_parties([0]), False),
        "net.bare_delivery_traced_ns": bare(RandomScheduler(), True),
        "net.fanout_submit_ns": fanout(),
        "net.world_build_us": prober.per_call(
            lambda: Simulation(params=params, seed=next(seeds), tracing=False).build_network()
        ) * 1e6,
    }


def crypto_probes(prober: Prober, profile: Profile) -> Dict[str, float]:
    n, prime = profile.n, profile.prime or DEFAULT_PRIME
    t = max_faults(n)
    rng = random.Random(7)
    plan = get_eval_plan(prime, n)
    matrix = [[0] * (t + 1) for _ in range(t + 1)]
    for i in range(t + 1):
        for j in range(i, t + 1):
            matrix[i][j] = matrix[j][i] = rng.randrange(prime)
    rows = [tuple(rng.randrange(prime) for _ in range(t + 1)) for _ in range(256)]
    subsets = list(itertools.islice(itertools.combinations(range(n), t + 1), 256))
    shares = [rng.randrange(prime) for _ in range(t + 1)]

    def rows_on(plane: CryptoPlane) -> None:
        for row in rows:
            plane.row_evals(plane.validate_row(row))

    def reconstruct_on(plane: CryptoPlane) -> None:
        for subset in subsets:
            plane.reconstruct_at_zero(subset, shares)

    warm = CryptoPlane(prime, n, t)
    rows_on(warm)
    reconstruct_on(warm)
    return {
        "crypto.deal_rows_us": prober.per_call(lambda: plan.bivariate_rows(matrix)) * 1e6,
        "crypto.row_miss_us": prober.per_call(lambda: rows_on(CryptoPlane(prime, n, t)), len(rows)) * 1e6,
        "crypto.row_hit_ns": prober.per_call(lambda: rows_on(warm), len(rows)) * 1e9,
        "crypto.reconstruct_miss_us": prober.per_call(
            lambda: reconstruct_on(CryptoPlane(prime, n, t)), len(subsets)) * 1e6,
        "crypto.reconstruct_hit_ns": prober.per_call(lambda: reconstruct_on(warm), len(subsets)) * 1e9,
    }


def counted_pass(profile: Profile, seeds: Sequence[int]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Counts per operation from trials run with a metrics registry attached.

    Returns the reported metrics and the further counts ``crypto.est_share``
    needs.  All are functions of the seeds alone and repeat exactly.
    """
    totals: Dict[str, float] = {}
    depth_sum = depth_count = depth_max = 0
    for seed in seeds:
        metrics = run_profile(profile, seed, metrics=True).metrics or {}
        crypto = metrics.get("crypto") or {}
        counts = dict(crypto.get("plane_cache") or {})
        counts.update(crypto.get("plan_dispatch") or {})
        counts["completions"] = (metrics.get("counters") or {}).get("completions", 0)
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
        depth = (metrics.get("histograms") or {}).get("queue_depth") or {}
        depth_sum += depth.get("sum") or 0
        depth_count += depth.get("count") or 0
        depth_max = max(depth_max, depth.get("max") or 0)
    ops = len(seeds)
    get = lambda key: totals.get(key, 0) / ops  # noqa: E731
    hits = get("row_hits") + get("eval_hits") + get("weight_hits")
    probes = hits + get("row_misses") + get("eval_misses") + get("weight_misses")
    return {
        "net.queue_depth_mean": depth_sum / depth_count if depth_count else 0.0,
        "net.queue_depth_max": float(depth_max),
        "crypto.row_misses_per_op": get("row_misses"),
        "crypto.eval_hits_per_op": get("eval_hits"),
        "crypto.weight_misses_per_op": get("weight_misses"),
        "crypto.vector_calls_per_op": get("vector_calls"),
        "crypto.scalar_calls_per_op": get("scalar_calls"),
        "crypto.plane_hit_ratio": hits / probes if probes else 0.0,
        "protocols.sessions_per_op": get("completions"),
    }, {
        "row_hits": get("row_hits"),
        "weight_hits": get("weight_hits"),
        # Every plan call that is not an eval-cache miss is a dealer's grid.
        "deals": max(0.0, get("vector_calls") + get("scalar_calls") - get("eval_misses")),
    }


def protocol_probes(profile: Profile, seeds: Sequence[int]) -> Dict[str, float]:
    n = profile.n
    extra = {} if profile.prime is None else {"prime": profile.prime}
    inputs = {pid: pid % 2 for pid in range(n)}

    def ns_per_delivery(run: Callable[[int], SimulationResult]) -> float:
        results = [run(seed) for seed in seeds]
        return sum(r.elapsed_s for r in results) / sum(r.steps for r in results) * 1e9

    return {
        "protocols.aba_ns_per_delivery": ns_per_delivery(
            lambda seed: api.run_aba(n=n, inputs=inputs, seed=seed, tracing=False, **extra)),
        "protocols.svss_ns_per_delivery": ns_per_delivery(
            lambda seed: api.run_svss(n=n, secret=7, seed=seed, tracing=False, **extra)),
    }


def obs_probes(profile: Profile, seeds: Sequence[int]) -> Dict[str, float]:
    """Each switch on over off on the same seeds (the sink under tracing)."""
    off = timed_profile(profile, seeds, tracing=False)
    traced = timed_profile(profile, seeds, tracing=True)
    rings = [RingBufferSink() for _ in seeds]
    with_ring = sum(timed_profile(profile, [seed], tracing=True, sinks=[ring])
                    for seed, ring in zip(seeds, rings))
    # What a JsonlSink would have written: it serialises every event exactly
    # like this; the ring keeps the last 4096 of them to take the mean over.
    kept = [event for ring in rings for event in ring.events]
    line_bytes = statistics.mean(
        len(json.dumps(event_to_jsonable(event), sort_keys=True)) + 1 for event in kept
    )
    events = sum(ring.events_seen for ring in rings) / len(rings)
    return {
        "obs.tracing_overhead_ratio": traced / off,
        "obs.metrics_overhead_ratio": timed_profile(profile, seeds, tracing=False, metrics=True) / off,
        "obs.sink_overhead_ratio": with_ring / traced,
        "obs.meter_overhead_ratio": off / timed_profile(profile, seeds, tracing=False, metering=False),
        "obs.events_per_op": events,
        "obs.jsonl_bytes_per_op": events * line_bytes,
    }


def core_probes(prober: Prober, results: Sequence[SimulationResult]) -> Dict[str, float]:
    def add_all() -> TrialAggregate:
        aggregate = TrialAggregate()
        for result in results:
            aggregate.add(result)
        return aggregate

    chunk = add_all()
    blob = pickle.dumps(chunk.to_transport_dict())

    def roundtrip() -> None:
        TrialAggregate.from_transport_dict(pickle.loads(pickle.dumps(chunk.to_transport_dict())))

    return {
        "core.aggregate_add_us": prober.per_call(add_all, len(results)) * 1e6,
        "core.aggregate_merge_us": prober.per_call(lambda: chunk.merge(chunk)) * 1e6,
        "core.transport_roundtrip_us": prober.per_call(roundtrip) * 1e6,
        "core.transport_bytes": float(len(blob)),
    }


def profile_cell(profile: Profile) -> ExperimentSpec:
    params = profile.kwargs()
    params["tracing"] = profile.tracing
    if "inputs" in params:
        params["inputs"] = {str(pid): value for pid, value in params["inputs"].items()}
    return ExperimentSpec(name="profile", protocol=profile.protocol, n=profile.n,
                          seeds=[0], params=params)


# ----------------------------------------------------------------------
def scenario_layer_metrics(prober: Prober, workload: ScenarioMixN16) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    runtime_s: List[float] = []
    director_s: List[float] = []
    invariants_s: List[float] = []
    actions = drops = 0
    trials_per_scenario = 3
    for scenario in SCENARIOS:
        executor = workload.executors[scenario]
        runtime = executor.scenario_runtime
        cell = executor.cell
        runtime_s.append(prober.per_call(lambda: ScenarioRuntime(get_scenario(scenario), n=cell.n)))
        director_s.append(prober.per_call(lambda: (runtime.build_director(), runtime.build_scheduler())))
        attacked = plain = 0.0
        for index in range(trials_per_scenario):
            gc.collect()
            seed, result, wall_s = workload.run_attack(scenario, "probe", index)
            attacked += wall_s
            actions += len(result.network.director.actions)
            drops += (result.message_stats or {}).get("messages_dropped", 0)
            gc.collect()
            began = time.perf_counter()
            executor.runner(n=cell.n, seed=seed, **executor.kwargs)
            plain += time.perf_counter() - began
        invariants_s.append(prober.per_call(
            lambda: assert_invariants(result, cell.protocol, params=executor.kwargs)))
        metrics[f"scenarios.overhead_ratio.{scenario}"] = attacked / plain
    trials = len(SCENARIOS) * trials_per_scenario
    metrics.update({
        "scenarios.runtime_build_us": statistics.mean(runtime_s) * 1e6,
        "scenarios.director_build_us": statistics.mean(director_s) * 1e6,
        "scenarios.invariants_us": statistics.mean(invariants_s) * 1e6,
        "scenarios.actions_per_op": actions / trials,
        "scenarios.drops_per_op": drops / trials,
    })
    return metrics


def campaign_layer_metrics(prober: Prober, workload: CampaignSmallW2,
                           samples: Sequence[Sample]) -> Dict[str, float]:
    first = samples[0].ops[0]
    spec = workload.specs[first.key]
    parallel_s = first.wall_s

    gc.collect()
    began = time.perf_counter()
    run_campaign(spec, workers=1, store=workload.store())
    inline_s = time.perf_counter() - began

    gc.collect()
    began = time.perf_counter()
    chunks: List[TrialAggregate] = []
    for cell in spec.cells:
        executor = CellExecutor(cell)
        aggregate = TrialAggregate()
        for seed in cell.seeds:
            aggregate.add(executor.run(seed))
        chunks.append(aggregate)
    bare_s = time.perf_counter() - began

    store = workload.store()
    store.bind_campaign(spec.name)
    transports = [(cell, chunk.to_transport_dict()) for cell, chunk in zip(spec.cells, chunks)]

    def put_chunks() -> None:
        for cell, transport in transports:
            store.put_chunk(cell.name, cell.spec_hash(), 0, cell.seeds, transport)

    put_s = prober.per_call(put_chunks, len(transports))
    for cell, chunk in zip(spec.cells, chunks):
        store.put(cell.name, cell.spec_hash(), chunk)
    save_s = prober.per_call(store.save)

    chunk_count = sum(-(-cell.trials // DEFAULT_CHUNK_TRIALS) for cell in spec.cells)
    return {
        "experiments.inline_overhead_ratio": inline_s / bare_s,
        "experiments.parallel_efficiency": inline_s / (workload.WORKERS * parallel_s),
        "experiments.first_chunk_ms": statistics.median(workload.first_chunk_s) * 1e3,
        "experiments.store_put_chunk_us": put_s * 1e6,
        "experiments.store_save_ms": save_s * 1e3,
        "experiments.store_bytes": float(os.path.getsize(store.path)),
        "experiments.chunks_per_op": chunk_count / spec.trials,
        "experiments.retries": float(
            workload.runner_metrics.counter_values().get("runner.retries", 0)),
    }


def beacon_layer_metrics(prober: Prober, workload: BeaconClosedN4,
                         samples: Sequence[Sample]) -> Dict[str, float]:
    service = workload.service
    assert service is not None
    positions = sorted({op.key for sample in samples for op in sample.ops})[:200]

    # In-process execution of the same requests on a warm executor cache.
    shard = ShardState(0)
    for position in (0, 1):
        shard.execute(workload.pool[position])
    exec_s: Dict[int, float] = {}
    for position in positions:
        began = time.perf_counter()
        shard.execute(workload.pool[position])
        exec_s[position] = time.perf_counter() - began
    exec_p50 = statistics.median(exec_s.values())

    solo = workload.closed_loop(derive_seed(workload.seed, "solo"), clients=1)
    solo_p50 = statistics.median(op.wall_s for op in solo.ops)
    waits = [op.wall_s - exec_s[op.key]
             for sample in samples for op in sample.ops if op.key in exec_s]

    request = workload.pool[0]
    result = CellExecutor(request.cell()).run(request.seed)

    def codec() -> None:
        BeaconRequest.from_dict(request.to_dict())
        canonical_payload(result)

    reply = ("ok", request.request_id, canonical_payload(result), True, 0.5)
    counters = service.metrics_dump()["counters"]
    ok = counters["service.ok"] or 1
    return {
        "service.start_ms": workload.start_s * 1e3,
        "service.cold_ms": statistics.median(workload.cold_s) * 1e3,
        "service.exec_ms_p50": exec_p50 * 1e3,
        "service.roundtrip_overhead_ms": (solo_p50 - exec_p50) * 1e3,
        "service.wait_ms_p50": quantile(waits, 0.50) * 1e3,
        "service.wait_ms_p95": quantile(waits, 0.95) * 1e3,
        "service.codec_us": prober.per_call(codec) * 1e6,
        "service.request_bytes": float(len(pickle.dumps(("request", request.to_dict())))),
        "service.response_bytes": float(len(pickle.dumps(reply))),
        "service.warm_hit_ratio": counters["service.warm_hits"] / ok,
        "service.shed": float(counters["service.shed"]),
        "service.retries": float(counters["service.retries"]),
        "service.restarts": float(counters["service.shard_restarts"]),
    }


# ----------------------------------------------------------------------
def layer_metrics(workload: Workload, samples: Sequence[Sample]) -> Dict[str, float]:
    """Every per-layer metric except the ``host.*`` ones, for one workload."""
    profile = workload.profile
    prober = Prober(0.0, 1) if workload.smoke else Prober(PROBE_BUDGET_S, 3)
    seeds = [derive_seed(workload.seed, "probe", i) for i in range(2)]
    metrics: Dict[str, float] = dict.fromkeys(LAYER_NAMES, 0.0)

    counted, extra = counted_pass(profile, seeds)
    metrics.update(counted)
    depth = max(1, round(counted["net.queue_depth_mean"]))
    # The budget below divides unit costs by the profile trial's loop time; the
    # box changes speed within seconds, so the trial is timed on both sides of
    # the unit-cost probes.
    plain = [run_profile(profile, seed) for seed in seeds]
    metrics.update(net_probes(prober, profile, depth))
    metrics.update(crypto_probes(prober, profile))
    plain += [run_profile(profile, seed) for seed in seeds]
    metrics.update(protocol_probes(profile, seeds))
    # On/off ratios of millisecond trials need many seeds; half-second trials
    # can afford one.  The count follows the trial's deliveries, not its wall
    # time: ``obs.events_per_op`` must be over the same seeds on every run.
    deliveries = sum(result.steps for result in plain) / len(plain)
    repeats = 1 if workload.smoke else max(1, min(40, round(30_000 / deliveries)))
    metrics.update(obs_probes(
        profile, [derive_seed(workload.seed, "obs", i) for i in range(repeats)]))
    metrics.update(core_probes(prober, plain))
    cell = profile_cell(profile)
    metrics["experiments.executor_build_us"] = prober.per_call(lambda: CellExecutor(cell)) * 1e6
    if isinstance(workload, ScenarioMixN16):
        metrics.update(scenario_layer_metrics(prober, workload))
    elif isinstance(workload, CampaignSmallW2):
        metrics.update(campaign_layer_metrics(prober, workload, samples))
    elif isinstance(workload, BeaconClosedN4):
        metrics.update(beacon_layer_metrics(prober, workload, samples))

    # Where the operations of this very pass spent their time.
    ops = [op for sample in samples for op in sample.ops]
    loop_s = sum(op.loop_s for op in ops)
    steps = sum(op.steps for op in ops)
    wall_s = sum(sample.wall_s for sample in samples)
    metrics["net.ns_per_delivery"] = loop_s / steps * 1e9
    metrics["net.loop_share"] = loop_s / (wall_s * workload.parallelism)

    # The layer budget of the profile trial's delivery loop.
    loop_per_op = sum(result.elapsed_s for result in plain) / len(plain)
    steps_per_op = sum(result.steps for result in plain) / len(plain)
    bare_ns = metrics["net.fanout_submit_ns"] + metrics[
        "net.bare_delivery_traced_ns" if profile.tracing else "net.bare_delivery_random_ns"]
    crypto_s = (
        extra["deals"] * metrics["crypto.deal_rows_us"] * 1e-6
        + counted["crypto.row_misses_per_op"] * metrics["crypto.row_miss_us"] * 1e-6
        + (extra["row_hits"] + counted["crypto.eval_hits_per_op"])
        * metrics["crypto.row_hit_ns"] * 1e-9
        + counted["crypto.weight_misses_per_op"] * metrics["crypto.reconstruct_miss_us"] * 1e-6
        + extra["weight_hits"] * metrics["crypto.reconstruct_hit_ns"] * 1e-9
    )
    metrics["net.bare_share"] = steps_per_op * bare_ns * 1e-9 / loop_per_op
    metrics["crypto.est_share"] = crypto_s / loop_per_op
    metrics["protocols.residual_share"] = (
        1.0 - metrics["net.bare_share"] - metrics["crypto.est_share"]
    )
    return metrics
