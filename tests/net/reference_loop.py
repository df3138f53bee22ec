"""The naive reference of the network's delivery loop.

``Network._drive_unmaterialised`` is the only delivery loop of the simulator,
and everything it does fast is left out here: the stop condition is the
per-process scan (``scan_all_honest_finished``), every delivery pops a whole
Message through the queue's ``pop``, stores the step and goes through
``Process.deliver``, the trace is handed a ``deliver`` event directly, and
the registry and the director are asked about every delivery.  Inside
:func:`reference_loop` a network's ``run*`` / ``step`` drive this instead.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.errors import SimulationError
from repro.net.network import DEFAULT_MAX_STEPS, Network


def reference_drive(network, watch, until, max_steps):
    queue, trace = network._queue, network.trace
    metrics, director = network.metrics, network.director
    every = 0 if metrics is None else metrics.queue_depth_every
    wake = None if director is None else director.wake_step
    delivered = 0
    while True:
        if watch is not None and network.scan_all_honest_finished(watch):
            return delivered
        if until is not None and until(network):
            return delivered
        if delivered == max_steps:
            raise SimulationError(
                f"run() exceeded {max_steps} deliveries without reaching its stop condition"
            )
        if not len(queue):
            if watch is None and until is None:
                return delivered
            raise SimulationError(
                "network is quiescent but the stop condition is not met (protocol deadlock)"
            )
        message = queue.pop(network.scheduler_rng)
        network.step_count = step = network.step_count + 1
        delivered += 1
        if trace.enabled:
            trace.messages_delivered += 1
            trace.record(step, "deliver", message.receiver, message)
        network.processes[message.receiver].deliver(message)
        if every and delivered % every == 0:
            metrics.on_queue_depth(step, len(queue))
        if wake is not None and step >= wake:
            director.on_step(step)
            wake = director.wake_step


def _step(network):
    if not len(network._queue):
        return False
    stop_at = network.step_count + 1
    reference_drive(network, None, lambda net: net.step_count >= stop_at, 1)
    return True


@contextmanager
def reference_loop():
    """Route every :class:`Network` drive through :func:`reference_drive`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "step", _step)
        patch.setattr(
            Network, "run",
            lambda self, until=None, max_steps=DEFAULT_MAX_STEPS:
                reference_drive(self, None, until, max_steps),
        )
        patch.setattr(
            Network, "run_until_complete",
            lambda self, session, max_steps=DEFAULT_MAX_STEPS:
                reference_drive(self, tuple(session), None, max_steps),
        )
        patch.setattr(
            Network, "run_to_quiescence",
            lambda self, max_steps=DEFAULT_MAX_STEPS:
                reference_drive(self, None, None, max_steps),
        )
        yield
