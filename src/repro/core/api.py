"""One-call runners for every protocol in the library.

These functions are the public entry points used by the examples, tests and
benchmarks.  Each has the shape ``run_x(n, <its protocol params>, seed=0,
[coin_source=None,] **world)``: it names only what its protocol takes, and
hands the world of the run to :func:`_simulation`, whose keywords are the one
declaration of it -- ``scheduler``, ``corruptions``, ``tracing``, ``prime``,
``director``, ``session_table``, ``metering``, ``metrics`` and ``sinks``.  A
keyword neither names is a ``TypeError``.  The runner wires its protocol at
every honest party, runs to completion (within
:attr:`~repro.net.runtime.Simulation.max_steps`) and returns a
:class:`~repro.net.runtime.SimulationResult`.

Example::

    from repro import api
    result = api.run_coinflip(n=4, seed=1, rounds=4, tracing=False)
    print(result.agreed_value)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro.core.config import ProtocolParams
from repro.core.results import TrialAggregate, aggregate
from repro.net.message import SessionId
from repro.net.process import Process
from repro.net.protocol import Protocol
from repro.net.runtime import Simulation, SimulationResult
from repro.net.scheduler import Scheduler
from repro.protocols.aba import BinaryAgreement, CoinSource, OracleCoinSource
from repro.protocols.acast import ACast
from repro.protocols.coinflip import CoinFlip
from repro.protocols.common_subset import CommonSubset
from repro.protocols.fair_choice import FairChoice
from repro.protocols.fba import FairByzantineAgreement
from repro.protocols.svss import SVSSRec, SVSSShare
from repro.protocols.weak_coin import WeakCommonCoin

BehaviorFactory = Callable[[Process], Any]
Corruptions = Optional[Mapping[int, BehaviorFactory]]

#: Default iteration override used when callers do not specify one.  The
#: paper's CoinFlip runs k = Theta(log(1/epsilon)) SVSS iterations; at
#: simulation scale a handful of iterations already exercises the full
#: mechanism (dealing, reconstruction, XOR combination) while keeping each
#: trial fast enough for thousand-seed sweeps.  An odd value avoids majority
#: ties, which at simulation scale would visibly skew the coin towards the
#: tie-breaking value.
DEFAULT_COINFLIP_ROUNDS = 5


def _simulation(
    n: int,
    seed: int,
    *,
    scheduler: Optional[Scheduler] = None,
    corruptions: Corruptions = None,
    tracing: bool = True,
    prime: Optional[int] = None,
    director: Optional[Any] = None,
    session_table: Optional[Dict[Any, Any]] = None,
    metering: bool = True,
    metrics: Optional[Any] = None,
    sinks: Optional[Any] = None,
) -> Simulation:
    """The world of one run: every keyword a runner does not name itself.

    ``tracing=False`` runs the network with all trace hooks disabled -- the
    Monte-Carlo campaign configuration, where only outputs are read.
    """
    if prime is None:
        params = ProtocolParams.for_parties(n)
    else:
        params = ProtocolParams.for_parties(n, prime=prime)
    sim = Simulation(
        params=params,
        scheduler=scheduler,
        seed=seed,
        tracing=tracing,
        director=director,
        session_table=session_table,
        metering=metering,
        metrics=metrics,
        sinks=list(sinks) if sinks else None,
    )
    for pid, factory in (corruptions or {}).items():
        sim.corrupt(pid, factory)
    return sim


def run_acast(
    n: int, value: Any, sender: int = 0, seed: int = 0, **world: Any
) -> SimulationResult:
    """Run one reliable broadcast of ``value`` from ``sender``."""
    return _simulation(n, seed, **world).run(
        ("acast",),
        ACast.factory(sender),
        inputs={sender: {"value": value}},
    )


class _ShareThenReconstruct(Protocol):
    """SVSS harness protocol: complete SVSS-Share, then reconstruct.

    Module-level (rather than defined inside :func:`run_svss`) so campaign
    workers can pickle runners that reference it.
    """

    def __init__(self, process: Process, session: SessionId, dealer: int) -> None:
        super().__init__(process, session)
        self.dealer = dealer

    def on_start(self, value: Optional[int] = None, **_: Any) -> None:
        kwargs = {"value": value} if self.pid == self.dealer else {}
        self.spawn(("share",), SVSSShare.factory(self.dealer), **kwargs)

    def on_child_complete(self, child: Protocol) -> None:
        if isinstance(child, SVSSShare):
            self.spawn(("rec",), SVSSRec.factory(self.dealer), share=child.output)
        elif isinstance(child, SVSSRec):
            self.complete(int(child.output))


def svss_harness_factory(dealer: int) -> Callable[[Process, SessionId], Protocol]:
    """Factory for the share-then-reconstruct harness used by :func:`run_svss`."""

    def factory(process: Process, session: SessionId) -> Protocol:
        return _ShareThenReconstruct(process, session, dealer)

    return factory


def run_svss(
    n: int, secret: int, dealer: int = 0, seed: int = 0, **world: Any
) -> SimulationResult:
    """Run SVSS-Share followed by SVSS-Rec and return the reconstructed values.

    The share and reconstruction phases are driven by a small wrapper protocol
    at every party, mirroring how CoinFlip uses SVSS.
    """
    return _simulation(n, seed, **world).run(
        ("svss_harness",),
        svss_harness_factory(dealer),
        inputs={dealer: {"value": secret}},
    )


def run_aba(
    n: int,
    inputs: Mapping[int, int],
    seed: int = 0,
    coin_source: Optional[CoinSource] = None,
    **world: Any,
) -> SimulationResult:
    """Run binary Byzantine agreement with the given per-party inputs."""
    return _simulation(n, seed, **world).run(
        ("aba",),
        BinaryAgreement.factory(coin_source or OracleCoinSource(seed)),
        inputs={pid: {"value": value} for pid, value in inputs.items()},
    )


class _PredicateDriver(Protocol):
    """CommonSubset harness: set the predicate for ``ready``, report the subset."""

    def __init__(
        self,
        process: Process,
        session: SessionId,
        ready: Iterable[int],
        source: CoinSource,
    ) -> None:
        super().__init__(process, session)
        self.ready = sorted(ready)
        self.source = source

    def on_start(self, **_: Any) -> None:
        child = self.spawn(
            ("cs",), CommonSubset.factory(self.source), k=self.params.quorum
        )
        for index in self.ready:
            child.set_predicate(index)

    def on_child_complete(self, child: Protocol) -> None:
        self.complete(frozenset(child.output))


def run_common_subset(
    n: int,
    ready_parties: Iterable[int],
    seed: int = 0,
    coin_source: Optional[CoinSource] = None,
    **world: Any,
) -> SimulationResult:
    """Run CommonSubset where the predicate is immediately true for ``ready_parties``."""
    ready = set(ready_parties)
    source = coin_source or OracleCoinSource(seed)

    def factory(process: Process, session: SessionId) -> Protocol:
        return _PredicateDriver(process, session, ready, source)

    return _simulation(n, seed, **world).run(("common_subset_harness",), factory)


def run_weak_coin(n: int, seed: int = 0, **world: Any) -> SimulationResult:
    """Run one weak common coin flip."""
    return _simulation(n, seed, **world).run(("weak_coin",), WeakCommonCoin.factory())


def run_coinflip(
    n: int,
    epsilon: float = 0.25,
    rounds: Optional[int] = DEFAULT_COINFLIP_ROUNDS,
    seed: int = 0,
    coin_source: Optional[CoinSource] = None,
    **world: Any,
) -> SimulationResult:
    """Run the strong common coin (Algorithm 1) once."""
    return _simulation(n, seed, **world).run(
        ("coinflip",),
        CoinFlip.factory(
            epsilon=epsilon,
            rounds_override=rounds,
            coin_source=coin_source or OracleCoinSource(seed),
        ),
    )


def run_fair_choice(
    n: int,
    m: int,
    coinflip_rounds: int = 1,
    seed: int = 0,
    coin_source: Optional[CoinSource] = None,
    **world: Any,
) -> SimulationResult:
    """Run FairChoice (Algorithm 2) over ``m`` candidates."""
    return _simulation(n, seed, **world).run(
        ("fair_choice",),
        FairChoice.factory(
            coinflip_rounds_override=coinflip_rounds,
            coin_source=coin_source or OracleCoinSource(seed),
        ),
        common_input={"m": m},
    )


def run_fba(
    n: int,
    inputs: Mapping[int, Any],
    coinflip_rounds: int = 1,
    seed: int = 0,
    coin_source: Optional[CoinSource] = None,
    **world: Any,
) -> SimulationResult:
    """Run fair Byzantine agreement (Algorithm 3) with the given inputs."""
    return _simulation(n, seed, **world).run(
        ("fba",),
        FairByzantineAgreement.factory(
            coin_source=coin_source or OracleCoinSource(seed),
            coinflip_rounds_override=coinflip_rounds,
        ),
        inputs={pid: {"value": value} for pid, value in inputs.items()},
    )


def run_many(
    runner: Callable[..., SimulationResult],
    seeds: Iterable[int],
    workers: int = 1,
    chunk_trials: Optional[int] = None,
    **kwargs: Any,
) -> TrialAggregate:
    """Run ``runner`` once per seed and aggregate the outcomes.

    With ``workers > 1`` the seeds are fanned out across a process pool via
    :mod:`repro.experiments.runner`, ``chunk_trials`` seeds per task
    (``None``: the runner's default; at any worker count, a size that is
    not a positive int is an :class:`~repro.errors.ExperimentError`); every
    trial is still seeded explicitly and chunk aggregates travel back as
    pickled objects, so the result is identical to a sequential run.
    Parallel execution requires ``runner`` and all ``kwargs`` to be picklable
    (module-level functions and plain data are; lambdas and bound schedulers
    may not be).

    Example::

        stats = run_many(run_coinflip, range(50), n=4, rounds=3, workers=4)
        print(stats.frequency(0), stats.frequency(1))
    """
    if workers > 1 or chunk_trials is not None:
        from repro.experiments.runner import DEFAULT_CHUNK_TRIALS, run_seeds

        return run_seeds(
            runner,
            seeds,
            workers=workers,
            chunk_trials=DEFAULT_CHUNK_TRIALS if chunk_trials is None else chunk_trials,
            **kwargs,
        )
    return aggregate(runner(seed=seed, **kwargs) for seed in seeds)
