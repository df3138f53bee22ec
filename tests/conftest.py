"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import ProtocolParams


@pytest.fixture
def params4() -> ProtocolParams:
    """Four parties, one fault: the paper's canonical configuration."""
    return ProtocolParams.for_parties(4)


@pytest.fixture
def params7() -> ProtocolParams:
    """Seven parties, two faults."""
    return ProtocolParams.for_parties(7)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic randomness source for crypto tests."""
    return random.Random(12345)
