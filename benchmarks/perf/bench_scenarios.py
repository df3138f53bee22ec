"""Adversarial-scenario workloads: named attacks at the n=32 bench scale.

Two kinds of measurement:

* **Trend workloads** (``before_s: null``) -- full trials of library
  scenarios (`dealer-ambush`, `adaptive-budget-burn`, `late-crash-quorum`,
  `partition-heal`) at the ``n32`` scale preset with tracing disabled, i.e.
  the exact per-trial cost a Monte-Carlo scenario campaign pays.  These have
  no legacy implementation to race; the checked-in numbers document the
  operating point (and the regression checker reports but never fails them).
* **The flood pair** -- the `flood-fenwick` scenario (session-starvation
  scheduler holding back all SVSS reconstruction traffic, so thousands of
  messages pile up in flight) run once on the indexed two-class
  :class:`~repro.net.queues.ClassRankQueue` fast path and once pinned to
  the legacy full-scan queue via :func:`~repro.net.scheduler.force_scan`.
  Delivery order is byte-identical (asserted before timing); the speedup is
  pure queue indexing, measured exactly where the scan path degenerates.
* **The reactive pairs** -- the director-driven `reactive-rush` scenario on
  the same rank-indexed queue with three classes versus
  the reference ``choose`` scan (same byte-identical guarantee, asserted
  before timing), plus ``reactive_director_overhead_n32``: the same reactive
  trial raced against the static-scheduler `restart-storm` trial at n=32.
  Its "speedup" is the static/reactive time ratio -- the price of closing
  the adversary loop -- and the regression checker's tolerance keeps the
  reactive path within 2x of the static row.

Every timed callable draws fresh seeds from its own counter so repeated
calls never replay a warm trial, and a determinism pre-check asserts that
rerunning a scenario on the same seed reproduces the identical trial.
"""

from __future__ import annotations

import itertools
from typing import List

from benchmarks.perf.harness import BenchResult, compare
from repro.experiments.registry import RUNNERS
from repro.net.runtime import SimulationResult
from repro.net.scheduler import force_scan
from repro.scenarios.engine import ScenarioRuntime, run_scenario
from repro.scenarios.library import get_scenario


def _fingerprint(result: SimulationResult):
    return result.steps, tuple(sorted(result.outputs.items()))


def _check_determinism(name: str, n: int) -> None:
    """Same scenario + seed must reproduce the identical trial."""
    first = run_scenario(name, n=n, seed=7, tracing=False)
    second = run_scenario(name, n=n, seed=7, tracing=False)
    if _fingerprint(first) != _fingerprint(second):
        raise AssertionError(f"{name}: scenario trial not deterministic at n={n}")


def _flood_trial(n: int, seed: int, scan: bool) -> SimulationResult:
    """One flood-fenwick trial, optionally pinned to the legacy scan queue."""
    spec = get_scenario("flood-fenwick")
    runtime = ScenarioRuntime(spec, n=n)
    scheduler = runtime.build_scheduler()
    if scan:
        scheduler = force_scan(scheduler)
    return RUNNERS.get(spec.protocol)(
        n=n, seed=seed, scheduler=scheduler, prime=runtime.prime, tracing=False
    )


def _reactive_trial(n: int, seed: int, scan: bool) -> SimulationResult:
    """One reactive-rush trial, optionally pinned to the reference scan.

    The scan wrapper hides the reactive scheduler's indexed queue but must
    still let the director apply its actions, so the reaction entry points
    are forwarded onto the wrapper.
    """
    spec = get_scenario("reactive-rush")
    runtime = ScenarioRuntime(spec, n=n)
    scheduler = runtime.build_scheduler()
    if scan:
        inner = scheduler
        scheduler = force_scan(inner)
        scheduler.supports_reactions = True
        scheduler.apply_action = inner.apply_action
    return RUNNERS.get(spec.protocol)(
        n=n,
        seed=seed,
        scheduler=scheduler,
        prime=runtime.prime,
        director=runtime.build_director(),
        tracing=False,
    )


def run(quick: bool) -> List[BenchResult]:
    n = 16 if quick else 32
    repeats = 2
    results: List[BenchResult] = []

    # -- trend workloads: library scenarios at bench scale ----------------
    for name, number in (
        ("dealer-ambush", 1),
        ("adaptive-budget-burn", 1),
        ("late-crash-quorum", 2),
        ("partition-heal", 2),
        ("restart-storm", 1),
        ("tamper-on-share", 1),
        ("reactive-rush", 1),
    ):
        _check_determinism(name, n)
        seeds = itertools.count(500)
        results.append(
            compare(
                f"scenario_{name.replace('-', '_')}",
                lambda seeds=seeds, name=name: run_scenario(
                    name, n=n, seed=next(seeds), tracing=False
                ),
                number=number,
                repeats=repeats,
                n=n,
                scenario=name,
            )
        )

    # -- the flood pairs: indexed two-class queue vs legacy full scan -----
    # n=8 runs in both modes (same params), so the CI quick run gates the
    # flood speedup against the checked-in baseline; the n=16 pair is the
    # full-mode headline where the scan path is deep in its O(m) regime.
    flood_sizes = [8] if quick else [8, 16]
    for flood_n in flood_sizes:
        fast = _flood_trial(flood_n, 3, scan=False)
        scan = _flood_trial(flood_n, 3, scan=True)
        if _fingerprint(fast) != _fingerprint(scan):
            raise AssertionError(
                "flood-fenwick: indexed queue diverged from the scan path "
                f"at n={flood_n}"
            )
        fast_seeds = itertools.count(900)
        scan_seeds = itertools.count(900)
        results.append(
            compare(
                f"flood_fenwick_delivery_n{flood_n}",
                lambda flood_n=flood_n, fast_seeds=fast_seeds: _flood_trial(
                    flood_n, next(fast_seeds), scan=False
                ),
                lambda flood_n=flood_n, scan_seeds=scan_seeds: _flood_trial(
                    flood_n, next(scan_seeds), scan=True
                ),
                number=1,
                repeats=repeats,
                n=flood_n,
                scenario="flood-fenwick",
            )
        )

    # -- the reactive pairs: rank-indexed queue vs reference choose scan --
    # Same quick/full split as the flood pairs: the reference scan is
    # O(pending * rules) per delivery once the rush rule installs, so it is
    # only affordable at the small sizes.
    reactive_sizes = [8] if quick else [8, 16]
    for reactive_n in reactive_sizes:
        fast = _reactive_trial(reactive_n, 3, scan=False)
        scan = _reactive_trial(reactive_n, 3, scan=True)
        if _fingerprint(fast) != _fingerprint(scan):
            raise AssertionError(
                "reactive-rush: indexed queue diverged from the reference "
                f"scan at n={reactive_n}"
            )
        fast_seeds = itertools.count(900)
        scan_seeds = itertools.count(900)
        results.append(
            compare(
                f"reactive_rush_delivery_n{reactive_n}",
                lambda reactive_n=reactive_n, fast_seeds=fast_seeds: _reactive_trial(
                    reactive_n, next(fast_seeds), scan=False
                ),
                lambda reactive_n=reactive_n, scan_seeds=scan_seeds: _reactive_trial(
                    reactive_n, next(scan_seeds), scan=True
                ),
                number=1,
                repeats=repeats,
                n=reactive_n,
                scenario="reactive-rush",
            )
        )

    # -- director overhead: reactive trial vs the static-scheduler row ----
    # Always at n=32 (both modes): the "speedup" is static over reactive
    # wall time for same-protocol, same-scale trials, so the regression
    # checker's tolerance pins the reactive director within 2x of the
    # static-scheduler trial.
    _check_determinism("reactive-rush", 32)
    static_seeds = itertools.count(700)
    reactive_seeds = itertools.count(700)
    results.append(
        compare(
            "reactive_director_overhead_n32",
            lambda reactive_seeds=reactive_seeds: run_scenario(
                "reactive-rush", n=32, seed=next(reactive_seeds), tracing=False
            ),
            lambda static_seeds=static_seeds: run_scenario(
                "restart-storm", n=32, seed=next(static_seeds), tracing=False
            ),
            number=1,
            repeats=repeats,
            n=32,
            scenario="reactive-rush",
        )
    )
    return results
