"""Operating points for ``benchmarks/pairs.py --op``: one operation per call.

Each callable runs against whichever tree's ``src`` the pairs tool put first
on ``sys.path`` and returns ``(steps, messages)`` for the operation, so the
tool can check that both trees did the same work.
"""

from __future__ import annotations

from typing import Tuple


def _chunk(cell, seeds) -> Tuple[int, int]:
    """One campaign chunk: ``_run_cell_chunk``, the path every campaign takes."""
    from repro.experiments.runner import _run_cell_chunk

    aggregate = _run_cell_chunk(cell, seeds)
    return aggregate["total_steps"], aggregate["total_messages"]


def coin_n32_chunk() -> Tuple[int, int]:
    """Four weak-coin trials at n=32 (the ledger's prime, trace-free) as one chunk."""
    cell = {"name": "coin-n32", "protocol": "weak_coin", "n": 32, "seeds": [0, 1, 2, 3],
            "params": {"prime": 1_000_003, "tracing": False}}
    return _chunk(cell, [0, 1, 2, 3])


def aba_n4_chunk() -> Tuple[int, int]:
    """Two oracle-coin agreements at n=4 as one chunk: a tiny operation."""
    cell = {"name": "aba-n4", "protocol": "aba", "n": 4, "seeds": [0, 1],
            "params": {"inputs": {"0": 1, "1": 0, "2": 1, "3": 0}}}
    return _chunk(cell, [0, 1])
