"""Ablation harness: what-the-system-does arms, claims and attack sweeps.

An ablation arm differs from the baseline in what the system *does*: which
attack components are active (corruption plan, fault timeline, hostile
scheduler, tamper transitions) or what a run *reports* (full tracing, the
trace-free message meter).  It is not a per-optimisation wall-time verdict:
how the engine queues a fan-out or evaluates a row is chosen from observable
state, is byte-identical by construction and is held there by differential
tests; whether a fast path pays is judged by the perf ledger's alternating
pairs (``benchmarks/ledger``), never by a campaign's wall column.  This
module provides:

* a :class:`Factor` registry describing every toggle as a campaign-cell
  parameter overlay (scenario components ride the ``<base>~no-<component>``
  variant syntax of :func:`repro.scenarios.library.get_scenario`);
* grid builders expanding factors into ordinary
  :class:`~repro.experiments.spec.ExperimentSpec` cells -- one-factor-out by
  default, full factorial on request -- which run on the existing
  fault-tolerant campaign runner (parallel, resumable, quarantine-aware for
  free) and therefore serialize, hash and resume like any other campaign;
* :func:`contribution_table`, aggregating the resulting
  :class:`~repro.core.results.TrialAggregate` per cell into per-factor
  plain-dict rows, the ones a report payload carries (sends-by-kind, crypto
  cache hit rates, a statistics-identity check against the baseline for the
  arms that must not change them, and an advisory wall time);
* :func:`build_attack_sweep` / :func:`sweep_table`, reporting bias /
  disagreement probability / message complexity *as a function of the
  scenario* across ``n`` and seeds, with Wilson binomial confidence
  intervals (:func:`repro.analysis.binomial.wilson_interval`).

The machine-checked paper-claims layer on top lives in
:mod:`repro.analysis.claims`, the tables' text and markdown renderings in
:mod:`repro.experiments.report`; the ``repro-experiments ablate`` CLI mode
wires them together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.binomial import wilson_interval
from repro.analysis.complexity import predicted_messages
from repro.errors import ExperimentError

if TYPE_CHECKING:  # heavy layers; imported lazily at runtime because
    # ``protocols.coinflip`` imports this package during ``repro.core.api``'s
    # own initialisation (analysis must stay a leaf of the import graph).
    from repro.core.results import TrialAggregate
    from repro.experiments.spec import CampaignSpec, ExperimentSpec

#: Parameters every ablation cell shares unless overridden: tracing off (the
#: campaign configuration, metered) plus the structured-metrics registry,
#: which supplies the cache-hit-rate and histogram columns of the
#: contribution table.  A registry's hooks ride the delivery loop (a stored
#: step per delivery, a depth sample every 64th), so these cells cost a
#: little more than a plain trial and their wall column is advisory, like
#: every ``elapsed_s`` in the campaign layer.
DEFAULT_BASE_PARAMS: Dict[str, Any] = {"tracing": False, "metrics": True}

#: Name of the all-factors-on cell in every ablation campaign.
BASELINE_CELL = "baseline"


@dataclass(frozen=True)
class Factor:
    """One independently-toggleable factor of the system under ablation.

    Attributes:
        name: registry key; the one-factor-out cell is named ``no-<name>``.
        description: one-line human description of what the factor buys.
        ablated: cell-parameter overlay applied when the factor is *off*
            (merged over the base params, so several factors compose in
            factorial grids).
        scenario_component: when set, ablating the factor swaps the cell's
            scenario for its ``~no-<component>`` variant instead of touching
            params (see :data:`repro.scenarios.library.SCENARIO_COMPONENTS`).
        stats_preserving: the ablated configuration is expected to produce
            byte-identical per-seed statistics (outputs, message counts,
            steps) -- true when only the observation tier changes (tracing
            on), false when the toggle changes what is measured (metering
            off) or what the adversary does (scenario components).
    """

    name: str
    description: str
    ablated: Mapping[str, Any] = field(default_factory=dict)
    scenario_component: Optional[str] = None
    stats_preserving: bool = True


#: The two documented runner parameters that change what a run *reports*
#: and must not change what it computes.  Ablating ``trace_free`` re-enables
#: full tracing (the trace carries the counts, messages are materialised at
#: send); ablating ``metering`` leaves a trace-free run without message
#: counts.
OBSERVATION_FACTORS: Tuple[Factor, ...] = (
    Factor(
        "trace_free",
        "trace hooks disabled, metered group mode (vs full tracing)",
        ablated={"tracing": True},
    ),
    Factor(
        "metering",
        "aggregate message meter on trace-free runs (vs no meter)",
        ablated={"metering": False},
        stats_preserving=False,
    ),
)


def scenario_factors() -> Tuple[Factor, ...]:
    """Factors toggling each attack-scenario component independently."""
    from repro.scenarios.library import SCENARIO_COMPONENTS

    return tuple(
        Factor(
            f"scenario_{component}",
            f"attack scenario component: {component}",
            scenario_component=component,
            stats_preserving=False,
        )
        for component in SCENARIO_COMPONENTS
    )


# ----------------------------------------------------------------------
# Grid expansion
def _merge_params(
    base: Mapping[str, Any], overlay: Mapping[str, Any]
) -> Dict[str, Any]:
    """Overlay ``overlay`` onto ``base`` (dict values copied, never shared)."""
    return {
        key: dict(value) if isinstance(value, dict) else value
        for key, value in {**base, **overlay}.items()
    }


def _ablated_cell(
    name: str,
    protocol: str,
    n: int,
    seeds: Sequence[int],
    base: Mapping[str, Any],
    off_factors: Sequence[Factor],
    scenario: Optional[str],
) -> "ExperimentSpec":
    from repro.experiments.spec import ExperimentSpec

    params: Dict[str, Any] = _merge_params(base, {})
    cell_scenario = scenario
    dropped_components: List[str] = []
    for factor in off_factors:
        if factor.scenario_component is not None:
            if scenario is None:
                raise ExperimentError(
                    f"factor {factor.name!r} ablates a scenario component but "
                    f"the ablation has no scenario"
                )
            dropped_components.append(f"no-{factor.scenario_component}")
        else:
            params = _merge_params(params, factor.ablated)
    if dropped_components:
        cell_scenario = f"{scenario}~{','.join(dropped_components)}"
    return ExperimentSpec(
        name=name,
        protocol=protocol,
        n=n,
        seeds=list(seeds),
        params=params,
        scenario=cell_scenario,
    )


def one_factor_out_cells(
    protocol: str,
    n: int,
    seeds: Sequence[int],
    factors: Sequence[Factor],
    base_params: Optional[Mapping[str, Any]] = None,
    scenario: Optional[str] = None,
) -> List[ExperimentSpec]:
    """The baseline cell plus one ``no-<factor>`` cell per factor."""
    base = _merge_params(DEFAULT_BASE_PARAMS, base_params or {})
    cells = [
        _ablated_cell(BASELINE_CELL, protocol, n, seeds, base, (), scenario)
    ]
    for factor in factors:
        cells.append(
            _ablated_cell(
                f"no-{factor.name}", protocol, n, seeds, base, (factor,), scenario
            )
        )
    return cells


#: Factorial grids double per factor; more than this many factors is almost
#: certainly a mistake (256 cells), so the builder refuses.
MAX_FACTORIAL_FACTORS = 8


def factorial_cells(
    protocol: str,
    n: int,
    seeds: Sequence[int],
    factors: Sequence[Factor],
    base_params: Optional[Mapping[str, Any]] = None,
    scenario: Optional[str] = None,
) -> List[ExperimentSpec]:
    """The full ``2^k`` factorial grid over ``factors``.

    Cell names list the ablated factors (``no-a+no-b``); the all-on corner
    keeps the :data:`BASELINE_CELL` name so contribution tables and claims
    find it under either expansion mode.
    """
    if len(factors) > MAX_FACTORIAL_FACTORS:
        raise ExperimentError(
            f"factorial grid over {len(factors)} factors would need "
            f"{2 ** len(factors)} cells; cap is {MAX_FACTORIAL_FACTORS} factors"
        )
    base = _merge_params(DEFAULT_BASE_PARAMS, base_params or {})
    cells = []
    for bits in itertools.product((False, True), repeat=len(factors)):
        off = [factor for factor, is_off in zip(factors, bits) if is_off]
        name = "+".join(f"no-{factor.name}" for factor in off) or BASELINE_CELL
        cells.append(
            _ablated_cell(name, protocol, n, seeds, base, off, scenario)
        )
    return cells


def build_ablation_campaign(
    name: str,
    protocol: str,
    n: int,
    seeds: Sequence[int],
    factors: Optional[Sequence[Factor]] = None,
    mode: str = "one-out",
    base_params: Optional[Mapping[str, Any]] = None,
    scenario: Optional[str] = None,
) -> CampaignSpec:
    """Expand a factor set into a validated, hash-stable campaign spec.

    ``mode`` is ``"one-out"`` (baseline + one cell per factor, the default)
    or ``"factorial"`` (the full ``2^k`` grid).  When ``scenario`` is given,
    :func:`scenario_factors` are appended to the default factor set, so the
    attack's components are ablated alongside the observation factors.
    """
    if factors is None:
        factors = list(OBSERVATION_FACTORS)
        if scenario is not None:
            factors += list(scenario_factors())
    if mode == "one-out":
        cells = one_factor_out_cells(
            protocol, n, seeds, factors, base_params, scenario
        )
    elif mode == "factorial":
        cells = factorial_cells(protocol, n, seeds, factors, base_params, scenario)
    else:
        raise ExperimentError(
            f'ablation mode must be "one-out" or "factorial", got {mode!r}'
        )
    from repro.experiments.spec import CampaignSpec

    campaign = CampaignSpec(name=name, cells=cells)
    campaign.validate()
    return campaign


# ----------------------------------------------------------------------
# Contribution tables
def _stats_signature(aggregate: TrialAggregate) -> Tuple[Any, ...]:
    """The deterministic statistics a stats-preserving factor must not change."""
    return (
        aggregate.trials,
        aggregate.disagreements,
        tuple(sorted(aggregate.value_counts.items())),
        aggregate.total_messages,
        aggregate.total_steps,
        aggregate.total_shun_events,
        aggregate.total_dropped,
        tuple(sorted(aggregate.sent_by_kind.items())),
    )


def cache_hit_rate(aggregate: TrialAggregate) -> Optional[float]:
    """Crypto-plane cache hit rate over the aggregate's trials (or None).

    Pools the row/eval caches and the reconstructions answered by lookup
    against those interpolated (``secret_hits`` / ``weight_misses``; the
    ``crypto.plane.*`` counters folded by :meth:`TrialAggregate.add`); None
    when the cells ran without a metrics registry or never touched the plane.
    """
    hits = misses = 0
    for key, value in aggregate.metric_counters.items():
        if key.startswith("crypto.plane.") and key.endswith("_hits"):
            hits += value
        elif key.startswith("crypto.plane.") and key.endswith("_misses"):
            misses += value
    if hits + misses == 0:
        return None
    return hits / (hits + misses)


def _row_for(
    cell: str,
    factor: Optional[Factor],
    aggregate: TrialAggregate,
    baseline: Optional[TrialAggregate],
) -> Dict[str, Any]:
    """One contribution row (see :func:`contribution_table`)."""
    trials = aggregate.trials
    wall = aggregate.total_elapsed_s / trials if trials and aggregate.total_elapsed_s else None
    delta = None
    identical = None
    if baseline is not None and factor is not None:
        base_wall = (
            baseline.total_elapsed_s / baseline.trials
            if baseline.trials and baseline.total_elapsed_s
            else None
        )
        if wall is not None and base_wall:
            delta = 100.0 * (wall - base_wall) / base_wall
        if factor.stats_preserving:
            identical = _stats_signature(aggregate) == _stats_signature(baseline)
    return {
        "cell": cell,
        "factor": factor.name if factor else None,
        "description": factor.description if factor else "all factors on",
        "trials": trials,
        "wall_s_per_trial": wall,
        "deliveries_per_s": aggregate.deliveries_per_s,
        "wall_delta_pct": delta,
        "mean_messages": aggregate.mean_messages,
        "mean_steps": aggregate.mean_steps,
        "sent_by_kind": dict(aggregate.sent_by_kind),
        "cache_hit_rate": cache_hit_rate(aggregate),
        "stats_expected_identical": factor.stats_preserving if factor else True,
        "stats_identical": identical,
    }


def contribution_table(
    results: Mapping[str, TrialAggregate],
    factors: Sequence[Factor],
) -> List[Dict[str, Any]]:
    """Per-factor contribution rows from one-factor-out campaign results.

    ``results`` maps cell names to aggregates and must contain the
    :data:`BASELINE_CELL`; a factor whose ``no-<name>`` cell is missing
    (e.g. quarantined) is skipped rather than failing the whole table.

    Each row is the plain dict a report payload carries: the ``baseline``
    row holds the all-factors-on measurements; every ``no-<factor>`` row
    reports the same columns for the ablated run plus the relative
    wall-time delta (``wall_delta_pct``: positive = removing the factor made
    trials slower) and, for statistics-preserving factors, whether the
    deterministic statistics stayed byte-identical to the baseline
    (``stats_identical``; None where identity is not expected).
    """
    if BASELINE_CELL not in results:
        raise ExperimentError(
            f"contribution table needs a {BASELINE_CELL!r} cell; "
            f"got {sorted(results)}"
        )
    baseline = results[BASELINE_CELL]
    rows = [_row_for(BASELINE_CELL, None, baseline, None)]
    for factor in factors:
        cell = f"no-{factor.name}"
        aggregate = results.get(cell)
        if aggregate is None:
            continue
        rows.append(_row_for(cell, factor, aggregate, baseline))
    return rows


# ----------------------------------------------------------------------
# Attack sweeps
def build_attack_sweep(
    name: str,
    scenarios: Sequence[str],
    ns: Sequence[int],
    seeds: Sequence[int],
    base_params: Optional[Mapping[str, Any]] = None,
) -> CampaignSpec:
    """A campaign sweeping the named scenarios across party counts.

    One cell per ``(scenario, n)`` named ``<scenario>|n=<n>``; each cell's
    protocol comes from the scenario itself, and every cell runs in the
    trace-free metered configuration so sweeps stay on the fast path.
    """
    from repro.experiments.spec import CampaignSpec, ExperimentSpec
    from repro.scenarios.library import get_scenario

    base = _merge_params({"tracing": False}, base_params or {})
    cells = []
    for scenario in scenarios:
        protocol = get_scenario(scenario).protocol
        for n in ns:
            cells.append(
                ExperimentSpec(
                    name=f"{scenario}|n={n}",
                    protocol=protocol,
                    n=n,
                    seeds=list(seeds),
                    params=dict(base),
                    scenario=scenario,
                )
            )
    campaign = CampaignSpec(name=name, cells=cells)
    campaign.validate()
    return campaign


def sweep_table(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> List[Dict[str, Any]]:
    """Sweep rows for every campaign cell present in ``results``.

    One plain-dict row per ``(scenario, n)`` point: ``bias`` is the
    empirical frequency of output ``1`` over all trials (for binary-output
    protocols; None otherwise), with its Wilson interval ``bias_ci``;
    ``disagreement_rate`` is the honest-disagreement probability with its
    interval; ``message_ratio`` is measured mean messages over the
    closed-form honest prediction -- the attack's message-complexity
    amplification.
    """
    from repro.scenarios.invariants import BINARY_OUTPUT_PROTOCOLS

    rows = []
    for cell in campaign.cells:
        aggregate = results.get(cell.name)
        if aggregate is None or aggregate.trials == 0:
            continue
        trials = aggregate.trials
        bias = bias_ci = None
        ones = aggregate.value_counts.get("1", 0)
        if cell.protocol in BINARY_OUTPUT_PROTOCOLS:
            bias = ones / trials
            bias_ci = list(wilson_interval(ones, trials))
        predicted = predicted_messages(cell.protocol, cell.n, cell.params)
        rows.append(
            {
                "cell": cell.name,
                "scenario": cell.scenario or "-",
                "n": cell.n,
                "trials": trials,
                "disagreement_rate": aggregate.disagreement_rate,
                "disagreement_ci": list(wilson_interval(aggregate.disagreements, trials)),
                "ones": ones,
                "bias": bias,
                "bias_ci": bias_ci,
                "mean_messages": aggregate.mean_messages,
                "predicted_messages": predicted,
                "message_ratio": aggregate.mean_messages / predicted if predicted else None,
            }
        )
    return rows
