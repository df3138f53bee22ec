"""The calibration kernel: one pass is one **calibration unit (cu)**.

Wall time on a shared box drifts by +-15 % between back-to-back runs, and
CPU time drifts with it, so the drift is machine speed rather than
descheduling.  Dividing every timed block by the wall time of a fixed
pure-Python kernel run immediately before and after it cancels most of that
drift.  The kernel mixes the operations the simulator's hot paths are made
of (dict get/set, tuple allocation, int arithmetic, list sort) and imports
nothing from ``repro``, so no change to the system under test can move it.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time

#: Loop length; sized so one pass takes about 25 ms on the reference box.
_PASS_ITEMS = 30_000


def calibration_pass() -> int:
    """One deterministic pass of the kernel; the return value is a checksum."""
    table = {}
    rows = []
    acc = 1
    for index in range(_PASS_ITEMS):
        acc = (acc * 1_103_515_245 + 12_345) % 2_147_483_647
        key = acc & 1023
        table[key] = table.get(key, 0) + index
        rows.append((key, index, acc))
    rows.sort()
    total = 0
    for key, index, value in rows[::7]:
        total += key ^ (index + value)
    return total + len(table)


#: Passes per calibration.  On the reference box back-to-back single passes
#: differ by 9 % (median; 30 % at the 90th percentile), so one pass is a
#: noisier yardstick than the half-second block it measures.  Over windows of
#: 20 samples the spread of the normalised median was 4.6 % with one pass on
#: each side, 3.7 % with two and 3.8 % with three.
CALIBRATION_PASSES = 2

#: One calibration unit expressed in seconds, for the one metric the driver
#: wants in seconds (``setup_s``): a pass on the reference box when it is fast.
REFERENCE_CU_S = 0.025


def time_calibration() -> float:
    """Wall seconds per pass, averaged over ``CALIBRATION_PASSES`` passes."""
    started = time.perf_counter()
    for _ in range(CALIBRATION_PASSES):
        calibration_pass()
    return (time.perf_counter() - started) / CALIBRATION_PASSES


def _helper_main(conn: multiprocessing.connection.Connection) -> None:
    """Run one calibration whenever told to, until told to stop."""
    while True:
        try:
            if conn.recv() is None:
                return
        except (EOFError, OSError):
            return
        time_calibration()
        conn.send(True)


class Calibrator:
    """Calibrates on as many processes at once as the workload keeps busy.

    A workload that runs its trials in two worker processes is slowed by a
    neighbour taking one of the box's two cores; a single-process yardstick,
    which still has the other core to itself, is not.  So the calibration of
    such a workload is the wall time until ``processes`` processes have each
    finished their passes, started together.  With ``processes=1`` this is
    :func:`time_calibration` and starts nothing.
    """

    def __init__(self, processes: int = 1) -> None:
        context = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(processes - 1):
            ours, theirs = context.Pipe()
            process = context.Process(target=_helper_main, args=(theirs,), daemon=True)
            process.start()
            theirs.close()
            self._helpers.append((process, ours))

    def measure(self) -> float:
        """Wall seconds per pass with every process calibrating at once."""
        for _, conn in self._helpers:
            conn.send(True)
        started = time.perf_counter()
        time_calibration()
        for _, conn in self._helpers:
            conn.recv()
        return (time.perf_counter() - started) / CALIBRATION_PASSES

    def close(self) -> None:
        """Stop the helper processes and wait for them."""
        for process, conn in self._helpers:
            try:
                conn.send(None)
            except OSError:
                pass
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join()
            conn.close()
        self._helpers = []
