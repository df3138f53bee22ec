"""Long-lived sharded beacon service over the deterministic protocol stack.

The campaign layer (:mod:`repro.experiments`) runs to completion and exits;
this package keeps the expensive state *resident* -- per-(prime, n)
evaluation plans, behaviour factories, interned session tables -- in shard
processes on the same :class:`~repro.experiments.pool.WorkerPool` that runs
campaign chunks, so a stream of coin/ABA/FBA requests pays world-building
once per shape instead of once per request.

Modules:

* :mod:`repro.service.requests` -- request/response envelopes, canonical
  payloads, the cold-rerun oracle;
* :mod:`repro.service.shard` -- the shard's handler: its warm executors;
* :mod:`repro.service.frontend` -- routing, heartbeats, backpressure and
  graceful shutdown over the pool (which owns deadlines, kills, retries);
* :mod:`repro.service.loadgen` -- synthetic load, chaos injection,
  byte-identity verification.
"""

from repro.service.frontend import (
    BeaconService,
    ServicePolicy,
)
from repro.service.loadgen import LoadReport, build_requests, run_load
from repro.service.requests import (
    BeaconRequest,
    BeaconResponse,
    canonical_payload,
    cold_payload,
)

__all__ = [
    "BeaconRequest",
    "BeaconResponse",
    "BeaconService",
    "LoadReport",
    "ServicePolicy",
    "build_requests",
    "canonical_payload",
    "cold_payload",
    "run_load",
]
