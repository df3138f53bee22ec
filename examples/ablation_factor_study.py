"""Per-factor ablation study of two attacks, with a machine-checked verdict.

This is the :mod:`repro.analysis.ablation` harness driven as a library, the
way a paper-style factor study would use it:

1. A one-factor-out ablation of the ``dealer-ambush`` scenario at the
   smallest scale -- the two observation factors (tracing back on, the
   message meter off) and every scenario component (scheduler, corruption
   plan, timeline, tamper rules) are switched off in turn, and the
   per-factor contribution table reports what the arm did (messages, cache
   hit rate, an advisory wall time) and, for the tracing arm, whether the
   protocol statistics stayed byte-identical.
2. An attack sweep pitting ``dealer-ambush`` against ``rushing-coalition``
   across scales, with Wilson 95% confidence intervals on disagreement and
   output bias and measured-vs-predicted message ratios.
3. The claims report: the paper's guarantees (corruption budget ``t <
   n/3``, agreement, binary outputs, message-complexity envelope,
   termination) machine-checked over every cell that ran.  The script
   exits non-zero if any claim is refuted.

Run with::

    python examples/ablation_factor_study.py [ns] [seeds]

e.g. ``python examples/ablation_factor_study.py 4,16 3``.
"""

from __future__ import annotations

import sys

from repro.analysis.ablation import (
    OBSERVATION_FACTORS,
    build_ablation_campaign,
    build_attack_sweep,
    contribution_table,
    scenario_factors,
    sweep_table,
)
from repro.analysis.claims import evaluate_claims
from repro.experiments.report import render_claims, render_table, section_table
from repro.experiments.runner import run_campaign
from repro.experiments.spec import CampaignSpec
from repro.scenarios import get_scenario

FOCUS_SCENARIO = "dealer-ambush"
SWEEP_SCENARIOS = ("dealer-ambush", "rushing-coalition")


def run_study(ns, seeds_count) -> int:
    seeds = list(range(seeds_count))

    # 1. One-factor-out ablation of the focus attack at the smallest scale.
    n_ablate = min(ns)
    campaign = build_ablation_campaign(
        f"factor-study-{FOCUS_SCENARIO}-n{n_ablate}",
        protocol=get_scenario(FOCUS_SCENARIO).protocol,
        n=n_ablate,
        seeds=seeds,
        scenario=FOCUS_SCENARIO,
    )
    print(
        f"one-factor-out ablation of {FOCUS_SCENARIO} at n={n_ablate} "
        f"({len(campaign.cells)} cells x {seeds_count} seeds)"
    )
    results = run_campaign(campaign, workers=2)
    factors = list(OBSERVATION_FACTORS) + list(scenario_factors())
    rows = contribution_table(results, factors)
    print(render_table(*section_table("contribution", rows)))

    # 2. Attack sweep: both scenarios across every requested scale.
    sweep = build_attack_sweep("factor-study-sweep", SWEEP_SCENARIOS, ns, seeds)
    print(
        f"attack sweep: {' vs '.join(SWEEP_SCENARIOS)} at "
        f"n={','.join(str(n) for n in ns)}"
    )
    sweep_results = run_campaign(sweep, workers=2)
    sweep_rows = sweep_table(sweep, sweep_results)
    print(render_table(*section_table("sweep", sweep_rows)))

    # 3. Machine-check the paper claims over everything that ran.
    combined = CampaignSpec(
        name="factor-study", cells=list(campaign.cells) + list(sweep.cells)
    )
    report = evaluate_claims(combined, {**results, **sweep_results})
    print(render_claims(report.to_dict(), "text"))
    return 0 if report.passed else 1


if __name__ == "__main__":
    ns = [int(tok) for tok in (sys.argv[1] if len(sys.argv) > 1 else "4,16").split(",")]
    seeds_count = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    sys.exit(run_study(ns, seeds_count))
