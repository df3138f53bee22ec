"""Frozen copy of the seed's simulation event loop and crypto bindings.

The seed delivered every message through a per-step pipeline of
``run()`` -> poll an O(n) all-honest-finished scan -> ``step()`` ->
full-scan delivery queue, with a frozen-dataclass :class:`LegacyMessage`
allocated per send (property-based ``kind``/``root`` recomputed by the
tracing layer on every event), and SVSS computed on the seed's
object-layer crypto (per-operation ``FieldElement`` allocation, O(k^3)
Lagrange interpolation -- frozen in :mod:`benchmarks.perf.legacy`).
These are kept verbatim so ``python -m benchmarks.perf`` can measure the
"before" side of every end-to-end trial workload on the same interpreter,
protocols and seeds: a legacy trial is the seed's trial implementation,
a fast trial is the same protocol logic on the current fast-path stack.
The seed crypto consumes the identical rng stream and computes the same
field values, so both sides produce byte-identical outputs and delivery
orders per seed.

They are *benchmark oracles only* -- the production event loop lives in
``repro.net.network`` (completion counters, interned sessions, slotted
messages, fused loops) and the production crypto in ``repro.crypto``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from benchmarks.perf.legacy import LegacyPolynomial
from repro.core.config import ProtocolParams
from repro.crypto.field import Field, FieldElement
from repro.errors import SimulationError
from repro.net.message import SessionId
from repro.net.network import DEFAULT_MAX_STEPS, Network
from repro.net.runtime import Simulation
from repro.net.scheduler import RandomScheduler, Scheduler, force_scan
from repro.protocols import svss as svss_module


@dataclass(frozen=True)
class LegacyMessage:
    """The seed's message: a frozen dataclass with property-based tags."""

    sender: int
    receiver: int
    session: SessionId
    payload: Tuple[Any, ...]
    seq: int = 0

    @property
    def kind(self) -> Any:
        if not self.payload:
            return None
        return self.payload[0]

    @property
    def root(self) -> Any:
        if not self.session:
            return None
        return self.session[0]


class LegacyNetwork(Network):
    """The seed's event loop, grafted onto the current protocol stack.

    * delivery queue pinned to the legacy full-scan path (``force_scan``);
    * ``submit`` validates via ``params.is_valid_party``, copies session and
      payload tuples, and allocates a frozen-dataclass message;
    * ``run`` polls the stop condition through ``step()`` per delivery;
    * ``run_until_complete`` polls the O(n) per-process completion scan
      between every two deliveries (the seed's stop condition).
    """

    def __init__(
        self,
        params: ProtocolParams,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        keep_events: bool = False,
        tracing: bool = True,
    ) -> None:
        super().__init__(
            params,
            scheduler=force_scan(scheduler or RandomScheduler()),
            seed=seed,
            keep_events=keep_events,
            tracing=tracing,
        )

    # -- the seed's send path -------------------------------------------
    def submit(self, sender, receiver, session, payload):  # type: ignore[override]
        if not self.params.is_valid_party(receiver):
            raise SimulationError(f"message addressed to unknown party {receiver}")
        message = LegacyMessage(
            sender=sender,
            receiver=receiver,
            session=tuple(session),
            payload=tuple(payload),
            seq=self._next_seq,
        )
        self._next_seq += 1
        self._queue.push(message)  # type: ignore[arg-type]
        self.trace.on_send(self.step_count, message)  # type: ignore[arg-type]

    # -- the seed's delivery loop ---------------------------------------
    def run(self, until=None, max_steps=DEFAULT_MAX_STEPS):  # type: ignore[override]
        delivered = 0
        while True:
            if until is not None and until(self):
                return delivered
            if delivered >= max_steps:
                raise SimulationError(
                    f"run() exceeded {max_steps} deliveries without reaching "
                    f"its stop condition"
                )
            if not self.step():
                if until is None:
                    return delivered
                raise SimulationError(
                    "network is quiescent but the stop condition is not met "
                    "(protocol deadlock)"
                )
            delivered += 1

    def run_until_complete(self, session, max_steps=DEFAULT_MAX_STEPS):  # type: ignore[override]
        session = tuple(session)
        return self.run(
            until=lambda net: net.scan_all_honest_finished(session),
            max_steps=max_steps,
        )


class SeedPolynomial(LegacyPolynomial):
    """The seed's object-layer polynomial with the current wire-format API.

    Adds the ``from_ints`` / ``to_ints`` / ``__eq__`` surface the SVSS
    protocol uses, on top of the frozen FieldElement-per-operation
    arithmetic -- so the protocol code runs unmodified against the seed
    crypto.  Values and rng consumption are identical to the kernel-backed
    :class:`repro.crypto.polynomial.Polynomial`.
    """

    @classmethod
    def from_ints(cls, field: Field, values: Sequence[int]) -> "SeedPolynomial":
        return cls(field, values)

    def to_ints(self) -> List[int]:
        return [c.value for c in self.coefficients]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LegacyPolynomial):
            return NotImplemented
        return self.field == other.field and [
            c.value for c in self.coefficients
        ] == [c.value for c in other.coefficients]

    def __hash__(self) -> int:
        return hash((self.field.prime, tuple(c.value for c in self.coefficients)))

    def eval_int(self, x: int) -> int:
        # The seed had no raw-int evaluation path: evaluate through the
        # FieldElement Horner and unwrap.
        return self(x).value


class SeedSymmetricBivariate:
    """The seed's symmetric bivariate polynomial (object-layer row extraction).

    Draws coefficients in the same upper-triangle order and from the same
    ``field.random`` stream as the production class, so a legacy dealer deals
    byte-identical rows.
    """

    def __init__(self, field: Field, coefficients: Sequence[Sequence[Any]]) -> None:
        self.field = field
        self.coefficients: List[List[FieldElement]] = [
            [field(c) for c in row] for row in coefficients
        ]

    @classmethod
    def random(
        cls,
        field: Field,
        degree: int,
        rng: random.Random,
        secret: Optional[int] = None,
    ) -> "SeedSymmetricBivariate":
        size = degree + 1
        matrix: List[List[FieldElement]] = [
            [field.zero() for _ in range(size)] for _ in range(size)
        ]
        for i in range(size):
            for j in range(i, size):
                value = field.random(rng)
                matrix[i][j] = value
                matrix[j][i] = value
        if secret is not None:
            matrix[0][0] = field(secret)
        return cls(field, matrix)

    def row(self, index: Any) -> SeedPolynomial:
        # Verbatim the seed's row extraction (legacy_bivariate_row), built
        # directly as a SeedPolynomial to avoid re-wrapping overhead that the
        # seed never paid.
        field = self.field
        degree = len(self.coefficients) - 1
        x = field(index)
        coeffs = [field.zero()] * (degree + 1)
        x_power = field.one()
        for i in range(degree + 1):
            for j in range(degree + 1):
                coeffs[j] = coeffs[j] + self.coefficients[i][j] * x_power
            x_power = x_power * x
        return SeedPolynomial(field, coeffs)


@contextmanager
def seed_crypto() -> Iterator[None]:
    """Run SVSS (and everything stacked on it) on the seed's crypto layer."""
    saved = (svss_module.Polynomial, svss_module.SymmetricBivariatePolynomial)
    svss_module.Polynomial = SeedPolynomial  # type: ignore[misc,assignment]
    svss_module.SymmetricBivariatePolynomial = SeedSymmetricBivariate  # type: ignore[misc,assignment]
    try:
        yield
    finally:
        svss_module.Polynomial, svss_module.SymmetricBivariatePolynomial = saved  # type: ignore[misc]


# ----------------------------------------------------------------------
# The seed's protocol/process dispatch layer, verbatim.  The production
# versions skip defensive tuple copies, flatten the send call chain and
# inline the shun probe; the seed paid all of that per message.
# ----------------------------------------------------------------------
def _seed_protocol_send(self, receiver, *payload):
    self.process.send(receiver, self.session, tuple(payload))


def _seed_protocol_broadcast(self, *payload):
    for receiver in range(self.n):
        self.send(receiver, *payload)


def _seed_process_send(self, receiver, session, payload):
    if self.outgoing_mutator is not None:
        mutated = self.outgoing_mutator(receiver, tuple(session), payload)
        if mutated is None:
            return
        receiver, session, payload = mutated
    self.network.submit(self.pid, receiver, tuple(session), tuple(payload))


def _seed_process_deliver(self, message):
    if self.behavior is not None:
        self.behavior.on_message(message)
        return
    session = message.session
    instance = self.protocols.get(session)
    if instance is None or not instance.started:
        self._pending.setdefault(session, []).append(message)
        return
    if self._is_shunned_for(message.sender, instance):
        self.network.trace.on_drop(self.network.step_count, message, "shunned")
        return
    instance.on_message(message.sender, message.payload)


def _seed_notify_completion(self, instance):
    self.network.record_completion(self.pid, instance.session)
    self.network.trace.on_complete(
        self.network.step_count, self.pid, instance.session, instance.output
    )


@contextmanager
def seed_runtime() -> Iterator[None]:
    """Run the protocol/process dispatch layer with the seed's per-message costs.

    (``record_completion`` is kept in the completion hook -- the counters did
    not exist at seed, but the legacy loop never reads them and the cost is a
    dict update per rare completion, far below measurement noise.)
    """
    from repro.net.process import Process
    from repro.net.protocol import Protocol

    saved = (
        Protocol.send,
        Protocol.broadcast,
        Process.send,
        Process.deliver,
        Process.notify_completion,
    )
    Protocol.send = _seed_protocol_send  # type: ignore[method-assign]
    Protocol.broadcast = _seed_protocol_broadcast  # type: ignore[method-assign]
    Process.send = _seed_process_send  # type: ignore[method-assign]
    Process.deliver = _seed_process_deliver  # type: ignore[method-assign]
    Process.notify_completion = _seed_notify_completion  # type: ignore[method-assign]
    try:
        yield
    finally:
        (
            Protocol.send,
            Protocol.broadcast,
            Process.send,
            Process.deliver,
            Process.notify_completion,
        ) = saved  # type: ignore[method-assign]


@contextmanager
def seed_stack() -> Iterator[None]:
    """The full frozen 'before': seed crypto + seed dispatch layer."""
    with seed_crypto(), seed_runtime():
        yield


def legacy_simulation(
    n: int,
    seed: int,
    max_steps: Optional[int] = None,
    tracing: bool = True,
) -> Simulation:
    """A :class:`Simulation` whose network is the frozen seed event loop."""
    params = ProtocolParams.for_parties(n)
    # pause_gc=False: the seed ran trials with the collector active.
    sim = Simulation(params=params, seed=seed, tracing=tracing, pause_gc=False)
    if max_steps is not None:
        sim.max_steps = max_steps
    sim.network = LegacyNetwork(params, seed=seed, tracing=tracing)
    return sim
