"""Asynchronous network simulation substrate."""

from repro.net.message import Message, SessionId, session_child, session_is_descendant
from repro.net.network import DEFAULT_MAX_STEPS, Network
from repro.net.process import Process
from repro.net.protocol import Protocol
from repro.net.runtime import Simulation, SimulationResult
from repro.net.queues import (
    DeliveryQueue,
    FanoutEntry,
    FifoQueue,
    KeyedQueue,
    ScanQueue,
    SendOrderRandomQueue,
    SurvivorsEntry,
)
from repro.net.scheduler import (
    DelayScheduler,
    FIFOScheduler,
    ForceScanScheduler,
    RandomScheduler,
    Scheduler,
    TargetedScheduler,
    delay_from_parties,
    delay_to_parties,
    force_scan,
)
from repro.net.tracing import Trace, TraceEvent

__all__ = [
    "Message",
    "SessionId",
    "session_child",
    "session_is_descendant",
    "Network",
    "DEFAULT_MAX_STEPS",
    "Process",
    "Protocol",
    "Simulation",
    "SimulationResult",
    "Scheduler",
    "FIFOScheduler",
    "RandomScheduler",
    "DelayScheduler",
    "TargetedScheduler",
    "ForceScanScheduler",
    "force_scan",
    "delay_from_parties",
    "delay_to_parties",
    "DeliveryQueue",
    "FanoutEntry",
    "ScanQueue",
    "FifoQueue",
    "KeyedQueue",
    "SendOrderRandomQueue",
    "SurvivorsEntry",
    "Trace",
    "TraceEvent",
]
