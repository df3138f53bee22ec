"""Analytic reproductions of the paper's quantitative claims.

Every name in ``__all__`` is importable from the package, but its module
loads on first access (PEP 562): a protocol that needs
:mod:`repro.analysis.binomial` does not also load the ablation and claims
reports.
"""

from importlib import import_module
from typing import Any

#: Submodule -> the names the package exports from it.
_EXPORTS = {
    "ablation": (
        "BASELINE_CELL",
        "Factor",
        "OBSERVATION_FACTORS",
        "build_ablation_campaign",
        "build_attack_sweep",
        "cache_hit_rate",
        "contribution_table",
        "factorial_cells",
        "one_factor_out_cells",
        "scenario_factors",
        "sweep_table",
    ),
    "binomial": (
        "BiasBoundRow",
        "bias_bound_row",
        "central_band_bound",
        "coinflip_iterations",
        "exact_tail_probability",
        "fair_choice_bits",
        "fair_choice_epsilon",
        "minimum_iterations_for_bias",
        "monte_carlo_tail",
        "paper_tail_lower_bound",
        "wilson_interval",
    ),
    "complexity": (
        "ComplexityRow",
        "acast_messages",
        "aba_expected_messages",
        "coinflip_expected_messages",
        "coinflip_iteration_messages",
        "coinflip_theoretical_messages",
        "common_subset_expected_messages",
        "fair_choice_expected_messages",
        "fba_expected_messages",
        "predicted_messages",
        "svss_rec_messages",
        "svss_share_messages",
    ),
    "claims": (
        "Claim",
        "ClaimReport",
        "ClaimResult",
        "evaluate_claims",
    ),
    "fairness": (
        "FairnessRow",
        "exact_validity_probability",
        "fairness_row",
        "fba_fair_validity_bound",
        "paper_validity_lower_bound",
        "worst_case_probability",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
