"""Command-line front end for experiment campaigns.

Usage (also installed as the ``repro-experiments`` console script)::

    python -m repro.experiments run campaign.json --workers 4
    python -m repro.experiments report campaign.results.json
    python -m repro.experiments validate campaign.json
    python -m repro.experiments ablate --rounds 3 --format json > ablation.json

``run`` executes (or resumes) a campaign and persists per-cell aggregates to
the ``--out`` JSON file; cells already present in the file with a matching
spec hash are skipped, so re-running after an interruption only pays for the
missing cells.  ``report`` pretty-prints a results file (``--format
text|markdown|json``; ``--campaign SPEC`` additionally machine-checks the
paper claims and fails the exit status when one is refuted); ``--drop CELL``
removes one cell first (the next ``run`` recomputes exactly that cell).
``ablate`` expands the factor registry of :mod:`repro.analysis.ablation`
into a one-factor-out (or factorial) campaign, prints the per-factor
contribution table and the claims report, and exits non-zero when a claim
fails -- the CI claims gate.  Progress lines go to stderr, so stdout holds
only the report.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.ablation import (
    BASELINE_CELL,
    OBSERVATION_FACTORS,
    build_ablation_campaign,
    build_attack_sweep,
    contribution_table,
    scenario_factors,
    sweep_table,
)
from repro.errors import ExperimentError, ServiceError, SimulationError
from repro.experiments.registry import FAULTS
from repro.experiments.runner import (
    DEFAULT_CHUNK_TRIALS,
    CampaignInterrupted,
    CampaignProgress,
    CellExecutor,
    run_campaign,
)
from repro.experiments.report import (
    build_report,
    render_report,
    render_table,
    section_table,
)
from repro.experiments.spec import CampaignSpec, ExecutionPolicy, FaultSpec
from repro.experiments.store import ResultStore

# ----------------------------------------------------------------------
def _parse_int_list(text: Optional[str]) -> Optional[List[int]]:
    """``"0,2,5"`` -> ``[0, 2, 5]``; ``None``/``"all"`` -> ``None`` (no filter)."""
    if text is None or text.strip().lower() == "all":
        return None
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ExperimentError(f"expected a comma-separated int list: {exc}") from None


def _chunk_trials(text: str) -> int:
    """The ``--chunk-trials`` type: a positive int.

    Raises :class:`ExperimentError`, which argparse lets through (a
    ``ValueError`` would become its usage text), so a bad size is the same
    one ``error:`` line and exit 2 as every other refused run.
    """
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise ExperimentError(f"--chunk-trials must be a positive integer, got {text!r}")
    return value


def _progress_printer(quiet: bool) -> Optional[Callable[[CampaignProgress], None]]:
    """The per-chunk progress line of ``run`` / ``ablate`` (None when quiet)."""
    if quiet:
        return None

    def report_progress(event: CampaignProgress) -> None:
        state = "resumed" if event.resumed else "ran"
        print(
            f"[{event.completed}/{event.total}] {event.cell}: "
            f"{state} {event.cell_completed}/{event.cell_trials} trials",
            file=sys.stderr,
            flush=True,
        )

    return report_progress


def _finish(failures: Dict[str, Dict[str, Any]], quarantined_status: int,
            claims: Optional[Any] = None) -> int:
    """The exit status of ``run`` / ``report`` / ``ablate``, its reasons on stderr.

    A quarantined cell beats a refuted claim: its records are listed and
    the verb's ``quarantined_status`` returned; a refuted claim is 1.
    """
    if failures:
        print("\nquarantined cells:", file=sys.stderr)
        for name, record in sorted(failures.items()):
            print(
                f"  {name}: chunk {record.get('chunk_index')} "
                f"{record.get('kind')} after {record.get('attempts')} attempt(s): "
                f"{record.get('error')}: {record.get('message')}",
                file=sys.stderr,
            )
        print(
            f"error: {len(failures)} cell(s) quarantined; the healthy cells "
            f"completed -- re-run to retry the quarantined ones",
            file=sys.stderr,
        )
        return quarantined_status
    if claims is not None and not claims.passed:
        print("error: paper claims refuted by the results", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry

    campaign_path = Path(args.campaign)
    campaign = CampaignSpec.load(campaign_path)
    out_path = Path(args.out or campaign_path.with_name(f"{campaign_path.stem}.results.json"))
    if args.fresh:
        out_path.unlink(missing_ok=True)
    store = ResultStore.open(out_path, recover_corrupt=args.recover_corrupt)
    if store.recovered_from is not None:
        print(
            f"warning: {out_path} was corrupt; quarantined to "
            f"{store.recovered_from} and starting fresh",
            file=sys.stderr,
        )

    if args.inject:
        fault = FaultSpec(
            fault=args.inject,
            params={
                "chunks": _parse_int_list(args.inject_chunks),
                "attempts": _parse_int_list(args.inject_attempts),
            },
        )
        for cell in campaign.cells:
            cell.fault = fault

    metrics = MetricsRegistry(queue_depth_every=0, completion_steps=False)
    results = run_campaign(
        campaign,
        workers=args.workers,
        store=store,
        progress=_progress_printer(args.quiet),
        chunk_trials=args.chunk_trials,
        # A flag left out is None, which inherits the campaign's policy.
        policy=ExecutionPolicy(
            trial_timeout_s=args.trial_timeout,
            max_chunk_retries=args.max_chunk_retries,
            fail_fast=args.fail_fast or None,
        ),
        metrics=metrics,
    )
    if not args.quiet:
        print(file=sys.stderr)
        print(f"campaign {campaign.name!r}: {campaign.trials} trials, "
              f"{len(results)} cells -> {out_path}")
        summaries = {name: agg.summary() for name, agg in results.items()}
        print(render_table(*section_table("cells", summaries)), end="")
        supervision = {
            name: value
            for name, value in metrics.counter_values().items()
            if name.startswith("runner.") and value
        }
        if supervision:
            print("supervision: " + ", ".join(
                f"{name.split('.', 1)[1]}: {value}"
                for name, value in sorted(supervision.items())
            ))
    return _finish(store.failures(), 3)


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.results)
    # ``ResultStore.open`` creates on a missing path, which is right for
    # ``run``; a report of nothing would pass the claims gate on a typo.
    if not path.exists():
        raise ExperimentError(f"no result store at {path}")
    store = ResultStore.open(path)
    if args.drop:
        if not store.delete(args.drop):
            print(f"no cell {args.drop!r} in {args.results}", file=sys.stderr)
            return 1
        store.save()
        print(f"dropped cell {args.drop!r}; the next `run` will recompute it")
        return 0
    results = {name: store.get(name) for name in store.cell_names()}
    claims_report = None
    if args.campaign:
        from repro.analysis.claims import evaluate_claims

        campaign = CampaignSpec.load(Path(args.campaign))
        claims_report = evaluate_claims(campaign, results)
    failures = store.failures()
    payload = build_report(
        store.campaign, results, claims=claims_report, failures=failures or None
    )
    print(render_report(payload, args.format), end="")
    if args.format == "text":
        partial = store.partial_cells()
        if partial:
            print("\nin progress (checkpointed chunks): " + ", ".join(
                f"{name}: {count} chunk(s)" for name, count in sorted(partial.items())
            ))
    return _finish(failures, 1, claims_report)


def _select_factors(names: Optional[str], scenario: Optional[str]) -> List[Any]:
    """Resolve ``--factors a,b`` against the registry (scenario factors too)."""
    available = list(OBSERVATION_FACTORS)
    if scenario is not None:
        available += list(scenario_factors())
    if names is None:
        return available
    by_name = {factor.name: factor for factor in available}
    selected = []
    for name in names.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in by_name:
            raise ExperimentError(
                f"unknown factor {name!r}; available: {', '.join(sorted(by_name))}"
            )
        selected.append(by_name[name])
    if not selected:
        raise ExperimentError("--factors selected no factors")
    return selected


def _cmd_ablate(args: argparse.Namespace) -> int:
    """Build, run and report an ablation campaign; gate on the paper claims.

    The defaults are the CI gate (honest coinflip at n=16, 10 seeds, the
    two observation factors); ``--biased`` replaces the seed list with one
    seed repeated, a deliberately rigged coin that the bias claim must
    refute -- the smoke test that the claims gate actually fails.  Exit
    status: 0 all claims hold, 1 a claim failed, 3 cells quarantined, arms
    or ``--sweep`` cells alike (a quarantined baseline leaves no contribution
    table; the rest of the report and the quarantine records are printed).
    """
    from repro.analysis.claims import evaluate_claims

    n = args.n
    seeds_count = args.seeds if args.seeds is not None else 10
    if args.biased:
        # One seed repeated: every trial is the same execution, so the coin
        # lands on one side every time.  At least 16 repeats are needed for
        # the Wilson upper bound on the other side's probability to drop
        # below 1/2 - 0.25 (fewer trials cannot statistically refute the
        # bound, by design of the claim).
        seeds = [args.seed_base] * max(16, 2 * seeds_count)
    else:
        seeds = list(range(args.seed_base, args.seed_base + seeds_count))
    # "" selects no factor: the baseline alone, a biased run's default.
    factor_arg = (args.factors or "") if args.biased else args.factors
    protocol = args.protocol
    base_params: Dict[str, Any] = {}
    if args.scenario is not None:
        from repro.scenarios.library import get_scenario

        protocol = get_scenario(args.scenario).protocol
    if protocol == "coinflip":
        base_params["rounds"] = args.rounds
    factors = [] if factor_arg == "" else _select_factors(factor_arg, args.scenario)
    arms = build_ablation_campaign(
        name=f"ablation-{args.scenario or protocol}-n{n}",
        protocol=protocol,
        n=n,
        seeds=seeds,
        factors=factors,
        mode=args.mode,
        base_params=base_params,
        scenario=args.scenario,
    )

    # The --sweep cells join the arms: one run, one pool, one store, and one
    # quarantine list that the exit status reads.
    sweep = None
    if args.sweep:
        sweep = build_attack_sweep(
            name=f"{arms.name}-sweep",
            scenarios=[name.strip() for name in args.sweep.split(",") if name.strip()],
            ns=_parse_int_list(args.sweep_ns) or [n],
            seeds=list(range(args.seed_base, args.seed_base + seeds_count)),
        )
    campaign = CampaignSpec(
        name=arms.name, cells=arms.cells + (sweep.cells if sweep else [])
    )
    failures: Dict[str, Any] = {}
    results = run_campaign(
        campaign,
        workers=args.workers,
        store=ResultStore.open(Path(args.out)) if args.out else None,
        progress=_progress_printer(args.quiet),
        chunk_trials=args.chunk_trials,
        failures=failures,
    )
    records = {name: failure.to_record() for name, failure in failures.items()}
    claims_report = evaluate_claims(campaign, results)
    payload = build_report(
        campaign.name,
        results,
        contribution=(
            contribution_table(results, factors)
            if factors and BASELINE_CELL in results
            else None
        ),
        sweep=sweep_table(sweep, results) if sweep else None,
        claims=claims_report,
        failures=records or None,
    )
    if not args.quiet:
        print(file=sys.stderr)
    print(render_report(payload, args.format), end="")
    return _finish(records, 3, claims_report)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Start the beacon service, drive a synthetic load, report and gate.

    The self-contained service harness: boots a sharded
    :class:`~repro.service.frontend.BeaconService`, generates ``--requests``
    deterministic mixed-protocol requests (optionally lacing chaos faults
    via ``--inject``), and verifies every completed response byte-for-byte
    against a cold one-shot rerun unless ``--no-verify``.  Exit status: 0
    healthy, 1 on any divergent response or availability below
    ``--min-availability``.
    """
    import json as _json

    from repro.obs.metrics import MetricsRegistry
    from repro.service.frontend import BeaconService, ServicePolicy
    from repro.service.loadgen import build_requests, run_load

    policy = ServicePolicy(
        shards=args.shards,
        queue_depth=args.queue_depth,
        request_timeout_s=args.timeout,
        max_retries=args.max_retries,
    )
    requests = build_requests(
        args.requests,
        n=args.n,
        protocols=[name.strip() for name in args.protocols.split(",") if name.strip()],
        seed_base=args.seed_base,
        inject=args.inject,
        inject_every=args.inject_every,
    )
    metrics = MetricsRegistry(queue_depth_every=0, completion_steps=False)
    with BeaconService(policy, metrics=metrics) as service:
        report = run_load(service, requests, verify=not args.no_verify)
        dump = service.metrics_dump()
    if not args.quiet:
        print(report.render_text())
        counters = {k: v for k, v in dump["counters"].items() if v}
        print("service: " + ", ".join(
            f"{name.split('.', 1)[1]}: {value}"
            for name, value in sorted(counters.items())
        ))
    if args.metrics_json:
        Path(args.metrics_json).write_text(_json.dumps(dump, indent=2) + "\n")
        if not args.quiet:
            print(f"metrics JSON -> {args.metrics_json}")
    errors = []
    if report.divergent:
        errors.append(
            f"{len(report.divergent)} response(s) diverged from the "
            f"cold rerun oracle -- a correctness failure"
        )
    if report.availability < args.min_availability:
        errors.append(
            f"availability {report.availability:.4f} below the "
            f"--min-availability floor {args.min_availability:g}"
        )
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    """Every static resolution ``run`` makes before its first trial, per cell.

    Each cell's problem is one line; the campaign-wide checks (name, policy,
    duplicate cell names) run once every cell has passed.
    """
    campaign = CampaignSpec.load(Path(args.campaign))
    refused = 0
    for cell in campaign.cells:
        try:
            # The cell's own fields, registry and scenario names
            # (`base~no-component` variants too), selectors, behaviour,
            # scheduler and fault params, the corruption budget, runner params.
            CellExecutor(cell)
        except ExperimentError as exc:
            message = str(exc)
            prefix = "" if message.startswith("cell ") else f"cell {cell.name!r}: "
            print(f"error: {prefix}{message}", file=sys.stderr)
            refused += 1
    if refused:
        return 1
    campaign.validate()
    print(
        f"campaign {campaign.name!r}: {len(campaign.cells)} cells, "
        f"{campaign.trials} trials, ok"
    )
    return 0


def _check_scenarios(args: argparse.Namespace) -> int:
    """Run scenarios trace-free and evaluate every safety invariant.

    The chaos gate: each scenario runs ``--check-seeds`` trials in the
    campaign throughput configuration (tracing off) and every
    :mod:`repro.scenarios.invariants` check -- budget, termination, step
    bound, agreement, validity -- is evaluated on each result.  Any
    violation is printed and the command exits non-zero, so CI fails loudly
    the moment an adversarial scenario breaks a guaranteed property.  A trial
    whose network runs dry is a ``termination`` violation like any other:
    it is counted and the gate goes on to the next seed and scenario.
    """
    from repro.scenarios.engine import ScenarioRuntime, run_scenario
    from repro.scenarios.invariants import (
        check_scenario_result,
        run_failure_violation,
    )
    from repro.scenarios.library import get_scenario, scenario_names

    names = [args.run] if args.run else scenario_names()
    seeds = list(range(args.seed, args.seed + max(1, args.check_seeds)))
    violations_total = 0
    trials = 0
    for name in names:
        spec = get_scenario(name)
        n = ScenarioRuntime(spec, n=args.n).n
        bad: List[str] = []
        steps = []
        for seed in seeds:
            trials += 1
            try:
                result = run_scenario(spec, n=n, seed=seed, tracing=False)
            except SimulationError as error:
                steps.append(getattr(error.network, "step_count", 0))
                bad.append(f"seed={seed} {run_failure_violation(error)}")
                continue
            steps.append(result.steps)
            for violation in check_scenario_result(spec, result):
                bad.append(f"seed={seed} {violation}")
        status = "OK" if not bad else f"{len(bad)} VIOLATION(S)"
        print(
            f"{name:<26} n={n:<3} seeds={seeds[0]}..{seeds[-1]} "
            f"steps={max(steps):<7} {status}"
        )
        for line in bad:
            print(f"  {line}")
        violations_total += len(bad)
    verdict = (
        "all invariants hold"
        if not violations_total
        else f"{violations_total} invariant violation(s)"
    )
    print(f"\n{len(names)} scenarios x {len(seeds)} seeds = {trials} trials: {verdict}")
    return 0 if not violations_total else 1


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """List, validate, inspect or smoke-run the named scenario library."""
    from repro.obs.sinks import JsonlSink
    from repro.obs.timeline import TimelineBuilder
    from repro.scenarios.engine import ScenarioRuntime, run_scenario
    from repro.scenarios.library import get_scenario, scenario_names

    if args.show:
        print(get_scenario(args.show).to_json(), end="")
        return 0

    if args.check:
        if args.smoke or args.no_tracing or args.trace_jsonl or args.timeline:
            raise ExperimentError(
                "--check runs its own trace-free trials; it only "
                "combines with --run/--n/--seed/--check-seeds"
            )
        return _check_scenarios(args)

    if (args.trace_jsonl or args.timeline) and not (args.run or args.smoke):
        raise ExperimentError("--trace-jsonl/--timeline require --run or --smoke")
    if (args.trace_jsonl or args.timeline) and args.no_tracing:
        raise ExperimentError("--trace-jsonl/--timeline need tracing; drop --no-tracing")

    names = [args.run] if args.run else scenario_names()

    def output(text: str, name: str) -> Path:
        # One file per scenario when smoking the whole library.
        path = Path(text)
        if len(names) > 1:
            path = path.with_name(f"{path.stem}.{name}{path.suffix}")
        return path

    if args.run or args.smoke:
        failed = 0
        for name in names:
            spec = get_scenario(name)
            # The runtime owns n-resolution (explicit --n beats the scale
            # preset beats the smoke default); report the n it resolved.
            n = ScenarioRuntime(spec, n=args.n).n
            jsonl_sink = JsonlSink(output(args.trace_jsonl, name)) if args.trace_jsonl else None
            timeline = TimelineBuilder() if args.timeline else None
            sinks = [sink for sink in (jsonl_sink, timeline) if sink is not None]
            try:
                result = run_scenario(
                    spec,
                    n=n,
                    seed=args.seed,
                    tracing=not args.no_tracing,
                    sinks=sinks or None,
                )
            except SimulationError as error:
                # The trial did not terminate (ROADMAP item 1 pins the known
                # seeds): say which, and go on with the rest of a smoke.
                print(f"error: {name} n={n} seed={args.seed}: {error}", file=sys.stderr)
                failed += 1
                continue
            status = (
                "DISAGREED" if result.disagreement else f"agreed={result.agreed_value!r}"
            )
            print(
                f"{name:<26} n={n:<3} seed={args.seed} "
                f"steps={result.steps:<7} {status}"
            )
            if jsonl_sink is not None:
                print(f"  trace: {jsonl_sink.path} ({jsonl_sink.events_written} events)")
            if timeline is not None:
                # render_text() is newline-terminated and byte-identical to an
                # offline `python -m repro.obs timeline` rebuild.
                out = output(args.timeline, name)
                out.write_text(timeline.render_text())
                print(f"  timeline: {out}")
        return 1 if failed else 0

    rows = []
    for name in names:
        spec = get_scenario(name)
        spec.validate()  # registry entries are validated on registration; recheck
        roundtrip = type(spec).from_json(spec.to_json())
        if roundtrip.to_dict() != spec.to_dict():
            print(f"scenario {name!r} does not round-trip through JSON", file=sys.stderr)
            return 1
        plan = spec.corruption
        rows.append(
            (
                name,
                spec.protocol,
                spec.scale or "-",
                plan.budget if plan.budget is not None else "t",
                f"{len(plan.static)}s/{len(plan.adaptive)}a/{len(spec.timeline)}f",
                spec.scheduler.scheduler if spec.scheduler else "-",
                spec.description,
            )
        )
    header = ("scenario", "protocol", "scale", "budget", "plan", "scheduler", "description")
    print(render_table(header, rows), end="")
    print(f"\n{len(rows)} scenarios, all valid and JSON-round-trippable")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Run, resume and report declarative experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags several verbs share, each declared once.
    campaign_arg = argparse.ArgumentParser(add_help=False)
    campaign_arg.add_argument("campaign", help="path to a campaign JSON spec")
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument(
        "--out", metavar="PATH", default=None,
        help="results JSON; cells already in it resume instead of re-running "
             "(run's default: <campaign>.results.json)",
    )
    execution.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: 1)"
    )
    execution.add_argument(
        "--chunk-trials", type=_chunk_trials, default=DEFAULT_CHUNK_TRIALS,
        help=f"seeds per dispatched chunk (default: {DEFAULT_CHUNK_TRIALS})",
    )
    execution.add_argument(
        "--quiet", action="store_true", help="suppress the progress lines on stderr"
    )
    report_format = argparse.ArgumentParser(add_help=False)
    report_format.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text",
        help="report format on stdout (default: text; json follows the schema "
             "in repro.obs.schema and validates with validate_report)",
    )

    run_parser = sub.add_parser(
        "run", parents=[campaign_arg, execution], help="run (or resume) a campaign"
    )
    run_parser.add_argument(
        "--fresh", action="store_true", help="discard existing results instead of resuming"
    )
    run_parser.add_argument(
        "--trial-timeout", type=float, default=None, metavar="S",
        help="per-trial wall-clock budget; a chunk past timeout x chunk-size "
             "is killed and retried (needs --workers > 1)",
    )
    run_parser.add_argument(
        "--max-chunk-retries", type=int, default=None, metavar="N",
        help="re-dispatches of a failed/timed-out chunk before its cell is "
             "quarantined (default: 2)",
    )
    run_parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort the campaign on the first quarantined cell instead of "
             "completing the healthy ones",
    )
    run_parser.add_argument(
        "--recover-corrupt", action="store_true",
        help="if the --out file is corrupt/truncated, quarantine it to "
             "<out>.corrupt and start fresh instead of failing",
    )
    run_parser.add_argument(
        "--inject", metavar="FAULT", default=None,
        help=f"chaos: inject a named worker fault into every cell "
             f"({', '.join(FAULTS.names())})",
    )
    run_parser.add_argument(
        "--inject-chunks", metavar="I,J,...", default=None,
        help="chunk indices the injected fault hits (default: all)",
    )
    run_parser.add_argument(
        "--inject-attempts", metavar="I,J,...", default="0",
        help="dispatch attempts the injected fault hits "
             "('all' = every attempt; default: 0, so retries recover)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    report_parser = sub.add_parser(
        "report", parents=[report_format], help="summarise a results file"
    )
    report_parser.add_argument("results", help="path to a results JSON file")
    report_parser.add_argument(
        "--drop", metavar="CELL", help="delete one cell's result (forces recompute)"
    )
    report_parser.add_argument(
        "--campaign", metavar="SPEC", default=None,
        help="campaign JSON the results came from; evaluates the machine-"
             "checked paper claims against the aggregates and exits 1 when "
             "any claim is refuted",
    )
    report_parser.set_defaults(handler=_cmd_report)

    ablate_parser = sub.add_parser(
        "ablate",
        parents=[execution, report_format],
        help="run a factor-ablation campaign, print the per-factor "
             "contribution table and machine-check the paper claims",
    )
    ablate_parser.add_argument(
        "--biased", action="store_true",
        help="deliberately rigged run (one seed repeated) that the coin-bias "
             "claim must refute; used by CI to prove the gate fails non-zero",
    )
    ablate_parser.add_argument(
        "--mode", choices=("one-out", "factorial"), default="one-out",
        help="grid expansion: baseline + one cell per factor (default) or "
             "the full 2^k factorial",
    )
    ablate_parser.add_argument(
        "--protocol", default="coinflip",
        help="runner to ablate (default: coinflip; ignored with --scenario)",
    )
    ablate_parser.add_argument(
        "--n", type=int, default=16, help="party count (default: 16)"
    )
    ablate_parser.add_argument(
        "--seeds", type=int, default=None,
        help="trials per cell (default: 10; keep <= 11 so an honest coin "
             "that happens to land one-sided is not statistically refuted)",
    )
    ablate_parser.add_argument(
        "--seed-base", type=int, default=0, help="first seed (default: 0)"
    )
    ablate_parser.add_argument(
        "--rounds", type=int, default=2, help="coinflip rounds (default: 2)",
    )
    ablate_parser.add_argument(
        "--factors", metavar="A,B,...", default=None,
        help="comma-separated factor subset (default: the observation "
             "factors, plus scenario-component factors with --scenario)",
    )
    ablate_parser.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="ablate under this attack scenario; its components (scheduler, "
             "corruption, timeline, tamper) become factors via the "
             "~no-<component> variants",
    )
    ablate_parser.add_argument(
        "--sweep", metavar="SCEN,SCEN", default=None,
        help="also sweep these scenarios across --sweep-ns and the seed "
             "range, in the same run as the arms, reporting "
             "bias/disagreement/message ratios with 95%% CIs",
    )
    ablate_parser.add_argument(
        "--sweep-ns", metavar="N,N", default=None,
        help="party counts for --sweep (default: the ablation --n)",
    )
    ablate_parser.set_defaults(handler=_cmd_ablate)

    serve_parser = sub.add_parser(
        "serve",
        help="boot the sharded beacon service, drive a synthetic load "
             "(optionally with chaos) and verify responses against cold reruns",
    )
    serve_parser.add_argument(
        "--requests", type=int, default=200,
        help="requests in the synthetic load (default: 200)",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=2, help="resident shard processes (default: 2)"
    )
    serve_parser.add_argument(
        "--n", type=int, default=4, help="party count per request (default: 4)"
    )
    serve_parser.add_argument(
        "--protocols", default="coinflip,weak_coin,aba,fba",
        help="comma-separated protocol mix (default: coinflip,weak_coin,aba,fba)",
    )
    serve_parser.add_argument(
        "--seed-base", type=int, default=1000, help="first request seed (default: 1000)"
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=32,
        help="admission bound per shard: requests are shed once "
             "shards x this many are queued or in flight, pooled over the "
             "shards (default: 32)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=5.0, metavar="S",
        help="per-request deadline; a shard past it is killed and replaced "
             "(default: 5.0)",
    )
    serve_parser.add_argument(
        "--max-retries", type=int, default=2,
        help="re-dispatches of a failed request before a terminal error "
             "(default: 2)",
    )
    serve_parser.add_argument(
        "--inject", metavar="FAULT", default=None,
        help="chaos: lace the load with a shard fault "
             "(raise, exit, sigkill, hang)",
    )
    serve_parser.add_argument(
        "--inject-every", type=int, default=7,
        help="inject the fault into every k-th request (default: 7)",
    )
    serve_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the byte-identity check of responses against cold reruns",
    )
    serve_parser.add_argument(
        "--min-availability", type=float, default=1.0,
        help="fail when ok/(ok+errors) drops below this (default: 1.0)",
    )
    serve_parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write the service metrics dump here (schema: "
             "repro.obs.schema.validate_service_metrics)",
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress the load report"
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    validate_parser = sub.add_parser(
        "validate", parents=[campaign_arg],
        help="check a campaign spec without running it",
    )
    validate_parser.set_defaults(handler=_cmd_validate)

    scenarios_parser = sub.add_parser(
        "scenarios",
        help="list, validate, inspect or smoke-run the named attack scenarios",
    )
    scenarios_parser.add_argument(
        "--run", metavar="NAME", help="run one trial of the named scenario"
    )
    scenarios_parser.add_argument(
        "--smoke", action="store_true", help="run one trial of every scenario"
    )
    scenarios_parser.add_argument(
        "--show", metavar="NAME", help="print one scenario's JSON definition"
    )
    scenarios_parser.add_argument(
        "--check", action="store_true",
        help="run trace-free trials of every scenario (or just --run NAME) "
             "and fail on any safety-invariant violation",
    )
    scenarios_parser.add_argument(
        "--check-seeds", type=int, default=2,
        help="trials per scenario under --check, seeded from --seed "
             "(default: 2)",
    )
    scenarios_parser.add_argument(
        "--n", type=int, default=None,
        help="party-count override (default: the scenario's scale preset, or 4)",
    )
    scenarios_parser.add_argument(
        "--seed", type=int, default=0, help="trial seed (default: 0)"
    )
    scenarios_parser.add_argument(
        "--no-tracing", action="store_true",
        help="disable trace hooks (the campaign throughput configuration)",
    )
    scenarios_parser.add_argument(
        "--trace-jsonl", metavar="PATH",
        help="stream the trial's trace events to a JSONL file "
             "(validate with `python -m repro.obs validate PATH`)",
    )
    scenarios_parser.add_argument(
        "--timeline", metavar="PATH",
        help="write a per-session text timeline of the trial to PATH "
             "(`python -m repro.obs timeline TRACE --format chrome` renders "
             "a --trace-jsonl file for chrome://tracing)",
    )
    scenarios_parser.set_defaults(handler=_cmd_scenarios)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ExperimentError, ServiceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CampaignInterrupted as exc:
        # Workers were torn down and completed chunks flushed before the
        # runner re-raised; report exactly what is resumable.
        print(
            f"\ninterrupted; {exc.checkpointed_trials}/{exc.total_trials} "
            f"trials checkpointed -- re-run to resume",
            file=sys.stderr,
        )
        return 130
    except KeyboardInterrupt:
        # Completed cells are already persisted; re-running resumes there.
        print("\ninterrupted; completed cells were saved -- re-run to resume",
              file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
