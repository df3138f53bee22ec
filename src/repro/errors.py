"""Exception hierarchy shared across the repro library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when protocol parameters are invalid (e.g. ``n < 3t + 1``)."""


class FieldError(ReproError):
    """Raised on invalid finite-field operations (e.g. division by zero)."""


class InterpolationError(ReproError):
    """Raised when polynomial interpolation is impossible or ambiguous."""


class DecodingError(ReproError):
    """Raised when Reed-Solomon decoding cannot correct the received word."""


class ProtocolError(ReproError):
    """Raised when a protocol receives input it can never accept.

    Honest protocol code never raises this for messages sent by faulty
    parties -- those are silently ignored or trigger shunning.  It is raised
    for programming errors such as starting a protocol twice.
    """


class SimulationError(ReproError):
    """Raised by the network runtime (e.g. step budget exhausted).

    ``network`` is the network the failed run was driving, attached by
    :meth:`repro.net.runtime.Simulation.run` so that a caller can report the
    state the run died in (deliveries made, which parties have no output);
    ``None`` when the error was raised outside a simulation run.
    """

    network = None


class ServiceError(ReproError):
    """Raised by the beacon service plane (bad request, closed service, ...).

    Service *execution* failures -- a shard dying, a deadline firing -- are
    never raised; they surface as structured error responses so one bad
    request cannot take the resident front-end down.
    """


class SchedulingError(ReproError):
    """Raised when a scheduler returns an invalid choice."""


class ExperimentError(ReproError):
    """Raised for invalid campaign specs, unknown registry names and
    incompatible result stores in :mod:`repro.experiments`."""


class FaultInjectionError(ReproError):
    """Raised by the chaos-injection ``raise`` fault
    (:data:`repro.experiments.registry.FAULTS`).

    A dedicated class so tests and quarantine records can tell an injected
    fault apart from a genuine failure of the code under test."""
