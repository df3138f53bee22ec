"""Beacon request/response envelopes and result canonicalisation.

A :class:`BeaconRequest` is one protocol instance somebody wants run --
``coinflip`` / ``weak_coin`` / ``aba`` / ``fba`` with explicit ``n``, runner
``params`` and ``seed`` -- addressed to the resident service instead of a
freshly built world.  Requests are plain JSON-shaped data (like campaign
cells) so they cross the shard pipe, a log file or a wire without losing
anything.

Determinism contract: the *entire* result of a request is a pure function of
``(protocol, n, params, seed)``.  :func:`canonical_payload` reduces a
:class:`~repro.net.runtime.SimulationResult` to a canonical JSON object and
:func:`cold_payload` recomputes that object from scratch in a fresh world;
the chaos harness asserts the two are byte-identical for every response the
service ever emitted, whatever shard deaths or retries happened on the way.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import schema
from repro.errors import ServiceError
from repro.experiments.registry import RUNNERS, fault_problem, runner_params_problem
from repro.experiments.spec import ExperimentSpec, JsonSpec, canonical_json

#: Convenience aliases accepted anywhere a protocol name is taken.
PROTOCOL_ALIASES = {"coin": "coinflip"}

#: Response statuses.
OK = "ok"
ERROR = "error"
SHED = "shed"

_request_ids = itertools.count()


def resolve_protocol(name: str) -> str:
    """Canonical runner name for ``name`` (resolving service aliases)."""
    resolved = PROTOCOL_ALIASES.get(name, name)
    if resolved not in RUNNERS:
        known = ", ".join(sorted(set(RUNNERS.names()) | set(PROTOCOL_ALIASES)))
        raise ServiceError(f"unknown beacon protocol {name!r}; known: {known}")
    return resolved


@dataclass
class BeaconRequest(JsonSpec):
    """One protocol instance to run on the resident service.

    Attributes:
        protocol: runner name (``coin`` is accepted as ``coinflip``).
        n: party count.
        seed: the trial seed; with ``protocol``/``n``/``params`` it fully
            determines the result.
        params: extra runner keyword arguments (``rounds``, ``inputs``, ...).
            ``tracing`` defaults to off -- the campaign throughput
            configuration -- unless the request says otherwise.
        request_id: correlation id; autogenerated when empty.
        fault: optional chaos fault spec (name + params, resolved against
            :data:`~repro.experiments.registry.FAULTS`) fired *in the shard*
            before the trial runs.  Execution-plane only: it may kill or
            stall the shard but can never change the computed result.  The
            ``attempts`` selector defaults to ``[0]`` so retries recover.
        attempt: dispatch counter maintained by the front-end (0 = first).
    """

    protocol: str
    n: int
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    request_id: str = ""
    fault: Optional[Dict[str, Any]] = None
    attempt: int = 0

    NOUN = "beacon request"
    ERROR = ServiceError
    #: Each field's check; ``n`` is a campaign cell's, so the two agree.
    FIELDS = {
        "protocol": schema.Name(),
        "n": ExperimentSpec.FIELDS["n"],
        "seed": schema.Int(),
        "params": ExperimentSpec.FIELDS["params"],
        "request_id": schema.Name(),
        "fault": schema.JsonObject(null=True),
        "attempt": schema.Int(0),
    }

    def __post_init__(self) -> None:
        self.protocol = PROTOCOL_ALIASES.get(self.protocol, self.protocol)
        if not self.request_id:
            self.request_id = f"req-{next(_request_ids)}"

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject malformed requests before they reach a shard.

        Fields, runner params and fault params are checked as a cell's are.
        """
        problem = schema.problem(self.FIELDS, vars(self), None, "{}")
        if problem is not None:
            raise ServiceError(f"request {self.request_id}: {problem}")
        problem = runner_params_problem(resolve_protocol(self.protocol), self.params, self.n)
        if problem is not None:
            raise ServiceError(f"request {self.request_id}: {problem}")
        if self.fault is not None:
            problem = fault_problem(self.fault)
            if problem is not None:
                raise ServiceError(f"request {self.request_id}: {problem}")

    # ------------------------------------------------------------------
    def cell(self) -> ExperimentSpec:
        """The request as a single-seed campaign cell (the execution shape)."""
        params = dict(self.params)
        params.setdefault("tracing", False)
        return ExperimentSpec(
            name=f"beacon-{self.protocol}-n{self.n}",
            protocol=self.protocol,
            n=self.n,
            seeds=[self.seed],
            params=params,
        )

    def warm_key(self) -> str:
        """Executor-cache key: everything but the seed.

        Two requests with the same key share a resident
        :class:`~repro.experiments.runner.CellExecutor` in their shard --
        warm per-(prime, n) evaluation plans and an interned session table --
        so only the first pays world-building.
        """
        return canonical_json(
            {"protocol": self.protocol, "n": self.n, "params": self.params}
        )

    def shard_slot(self, shards: int) -> int:
        """The request's *home* shard, by (protocol, n, prime).

        A stable content hash (never Python's randomised ``hash``), so the
        same request shape always prefers the same shard slot and finds its
        executor warm there.  A preference, not a binding: the front-end
        serves a request on its home shard when that shard is idle and on
        any idle shard otherwise -- the answer is the same either way.
        """
        key = f"{self.protocol}|{self.n}|{self.params.get('prime')}"
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "big") % max(1, shards)


@dataclass
class BeaconResponse(JsonSpec):
    """Structured outcome of one request.

    ``status`` is one of:

    * ``"ok"`` -- ``payload`` holds the canonical result;
    * ``"shed"`` -- the service's admission queue was full; nothing ran.
      The client should retry after ``retry_after_s`` (explicit
      backpressure instead of latency collapse);
    * ``"error"`` -- the request exhausted its retries; ``error`` names the
      terminal failure kind (``exception`` / ``timeout`` / ``shard-death`` /
      ``shutdown`` / ``rejected``).

    ``shard`` is the slot that served the request (its home slot on a shed
    response, None if it was never dispatched).  ``attempts`` counts
    dispatches (0 for shed requests).  ``elapsed_ms`` is the advisory
    wall-clock latency from acceptance to completion, including queueing and
    retries; like every wall-clock figure in this repo it is reported beside
    -- never inside -- the deterministic payload.
    """

    request_id: str
    status: str
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    message: Optional[str] = None
    shard: Optional[int] = None
    attempts: int = 0
    warm: Optional[bool] = None
    elapsed_ms: Optional[float] = None
    retry_after_s: Optional[float] = None

    ALWAYS = ("attempts",)

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def shed(self) -> bool:
        return self.status == SHED


# ----------------------------------------------------------------------
def canonical_payload(result: Any) -> Dict[str, Any]:
    """Reduce a :class:`SimulationResult` to its canonical JSON object.

    Honest outputs are canonicalised through ``repr`` (protocol outputs may
    be frozensets or tuples, which JSON cannot carry), keyed by party id in
    sorted order; ``value`` is the agreed repr or ``None`` on disagreement
    (weak coins may legitimately disagree).  Two runs of the same request
    produce byte-identical payloads -- ``canonical_json(payload)`` is the
    equality the chaos harness checks.
    """
    outputs = {str(pid): repr(result.outputs[pid]) for pid in sorted(result.outputs)}
    distinct = sorted(set(outputs.values()))
    return {
        "disagreement": len(distinct) > 1,
        "outputs": outputs,
        "steps": result.steps,
        "value": distinct[0] if len(distinct) == 1 else None,
    }


def cold_payload(request: BeaconRequest) -> Dict[str, Any]:
    """Recompute a request's canonical payload in a fresh, cold world.

    Builds a brand-new executor (no shared session table, no warm caches
    beyond the process-wide crypto tables every run shares) and runs the
    trial one-shot -- the oracle the service's warm answers are verified
    against, byte for byte.
    """
    from repro.experiments.runner import CellExecutor

    return canonical_payload(CellExecutor(request.cell()).run(request.seed))
