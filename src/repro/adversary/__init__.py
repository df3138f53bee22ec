"""Adversary framework: corrupted-party behaviours.

The scheduling attacks (the adversary's other lever, delivery order) are
named in :data:`repro.experiments.registry.SCHEDULERS` and built from
:mod:`repro.net.scheduler` by :mod:`repro.scenarios.schedulers`.
"""

from repro.adversary.attacks import (
    BadShareBehavior,
    DeterministicValueDealer,
    EquivocatingACastSender,
    FBAValueInjector,
    PointCorruptingBehavior,
    SplitBrainEquivocator,
    WithholdingDealerBehavior,
    corrupt_map,
)
from repro.adversary.behaviors import (
    Behavior,
    CrashBehavior,
    EquivocatingBehavior,
    HardCrashBehavior,
    HonestButMutatingBehavior,
    RandomNoiseBehavior,
    ReplayBehavior,
    SilentAfterBehavior,
    crash_all,
)

__all__ = [
    "Behavior",
    "CrashBehavior",
    "EquivocatingBehavior",
    "HardCrashBehavior",
    "SplitBrainEquivocator",
    "HonestButMutatingBehavior",
    "RandomNoiseBehavior",
    "ReplayBehavior",
    "SilentAfterBehavior",
    "crash_all",
    "BadShareBehavior",
    "DeterministicValueDealer",
    "EquivocatingACastSender",
    "FBAValueInjector",
    "PointCorruptingBehavior",
    "WithholdingDealerBehavior",
    "corrupt_map",
]
