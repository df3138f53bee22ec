"""Run the whole named-scenario catalogue and print a survival report.

Every scenario in :mod:`repro.scenarios.library` is a declarative attack --
a corruption plan (static or adaptive, budgeted at the resilience bound
``t < n/3``), a fault timeline, and a hostile scheduler -- addressed by
predicates instead of pid lists, so the same definitions run here at any
size.  This gallery runs each attack over a handful of seeds at two scales
and reports how the protocol under test held up: how many parties the
adversary actually corrupted, whether honest parties still agreed, and how
much the attack inflated the delivery count versus an unattacked run.

Run with::

    python examples/scenario_attack_gallery.py [n] [trials]
"""

from __future__ import annotations

import sys
from statistics import mean

from repro.core.config import max_faults
from repro.experiments.registry import RUNNERS
from repro.scenarios import ScenarioRuntime, get_scenario, scenario_names


def run_gallery(n: int, trials: int) -> None:
    t = max_faults(n)
    print(f"scenario gallery at n={n} (t={t}), {trials} seeds each\n")
    header = f"{'scenario':<26} {'corrupted':>9} {'agreement':>9} {'steps':>8} {'honest steps':>12}"
    print(header)
    print("-" * len(header))
    for name in scenario_names():
        spec = get_scenario(name)
        runtime = ScenarioRuntime(spec, n=n)
        runner = RUNNERS.get(spec.protocol)
        kwargs = runtime.runner_kwargs()  # preset prime folded in, checked

        corrupted, agreements, steps, honest_steps = [], 0, [], []
        for seed in range(trials):
            director = runtime.build_director()
            result = runner(
                n=n,
                seed=seed,
                scheduler=runtime.build_scheduler(),
                corruptions=runtime.static_corruptions() or None,
                director=director,
                **kwargs,
            )
            corrupted.append(len(director.corrupted))
            agreements += not result.disagreement
            steps.append(result.steps)
            # The unattacked reference run for the same seed and protocol.
            honest = runner(n=n, seed=seed, **kwargs)
            honest_steps.append(honest.steps)
        assert all(count <= t for count in corrupted), "budget violated!"
        print(
            f"{name:<26} {max(corrupted):>7}/{t:<1} "
            f"{agreements:>5}/{trials:<3} {mean(steps):>8.0f} {mean(honest_steps):>12.0f}"
        )
    print(
        "\n'corrupted' is the worst case over seeds -- never above t, however "
        "greedy the scenario's rules are."
    )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    run_gallery(n, trials)
