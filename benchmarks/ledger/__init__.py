"""Perf ledger: one end-to-end and per-layer benchmark for the whole stack.

Run ``python3 benchmarks/ledger/run.py`` (or ``python -m benchmarks.ledger``)
from the repository root; see ``README.md`` beside this file.
"""
