"""Structured campaign reports: one canonical payload, three renderings.

The CLI's ``report`` and ``ablate`` commands both build the same JSON-shaped
payload (declared as :data:`repro.obs.schema.REPORT`) and then
render it as fixed-width text, GitHub markdown, or raw JSON.  Keeping the
payload canonical means CI can validate one artifact, the claims gate reads
the same numbers humans see, and the renderings cannot drift apart: text and
markdown are one walk over the payload's sections (:func:`render_report`).
Each table is a :class:`Section` of declared columns (:data:`SECTIONS`),
and a format supplies only how a title, a heading, a table, the claims list
and a closing note look.

The payload is deterministic for a given campaign and seed list: cell
summaries, histogram percentiles, contribution and sweep rows and claim
verdicts are all functions of the trial statistics.  The only wall-clock
derived fields are the advisory throughput columns (``deliveries_per_s``,
``wall_s_per_trial``).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.metrics import summarize_histogram
from repro.obs.schema import REPORT_VERSION

if TYPE_CHECKING:
    from repro.core.results import TrialAggregate


def histogram_summaries(
    results: Mapping[str, "TrialAggregate"]
) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Per-cell percentile summaries of every merged metric histogram.

    ``{cell: {metric: {count, mean, p50, p90, p99, max}}}``; cells whose
    trials ran without a metrics registry simply have no entry.
    """
    summaries: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for name, aggregate in results.items():
        metrics = {
            metric: summarize_histogram(hist)
            for metric, hist in sorted(aggregate.metric_histograms.items())
        }
        if metrics:
            summaries[name] = metrics
    return summaries


def build_report(
    campaign: Optional[str],
    results: Mapping[str, "TrialAggregate"],
    contribution: Optional[Sequence[Mapping[str, Any]]] = None,
    sweep: Optional[Sequence[Mapping[str, Any]]] = None,
    claims: Optional[Any] = None,
    failures: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, Any]:
    """Assemble the canonical report payload (:data:`repro.obs.schema.REPORT`).

    ``contribution`` / ``sweep`` are the plain-dict rows of
    :func:`~repro.analysis.ablation.contribution_table` /
    :func:`~repro.analysis.ablation.sweep_table`, and the ``claims`` report
    is included via its ``to_dict``; absent analyses are absent keys, never
    empty placeholders, so a payload says what actually ran.
    """
    payload: Dict[str, Any] = {
        "report_version": REPORT_VERSION,
        "campaign": campaign,
        "cells": {
            name: aggregate.summary() for name, aggregate in sorted(results.items())
        },
    }
    histograms = histogram_summaries(results)
    if histograms:
        payload["histograms"] = histograms
    if contribution is not None:
        payload["contribution"] = [dict(row) for row in contribution]
    if sweep is not None:
        payload["sweep"] = [dict(row) for row in sweep]
    if claims is not None:
        payload["claims"] = claims.to_dict()
    if failures:
        payload["failures"] = {name: dict(record) for name, record in failures.items()}
    return payload


# ----------------------------------------------------------------------
# Renderings
def _dash(spec: str) -> Callable[[Any], str]:
    """Format a value with ``spec``, or ``-`` for None."""
    return lambda value: "-" if value is None else spec.format(value)


def _throughput(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:,.0f}".replace(",", "_")


def _pairs(counts: Optional[Mapping[str, Any]]) -> str:
    return ", ".join(f"{key}: {count}" for key, count in sorted((counts or {}).items())) or "-"


def _percent(rate: Optional[float]) -> str:
    return "-" if rate is None else f"{100.0 * rate:.1f}%"


def _interval(interval: Optional[Sequence[float]]) -> str:
    return "-" if interval is None else f"[{interval[0]:.3f}, {interval[1]:.3f}]"


def _stats(row: Mapping[str, Any]) -> str:
    if row["stats_identical"] is None:
        return "-" if row["stats_expected_identical"] else "n/a"
    return "identical" if row["stats_identical"] else "DIVERGED"


class Section(NamedTuple):
    """One table of a payload.

    ``columns`` are ``(header, row key, format)``; a None key hands the
    format the whole row.  ``rows`` turns the payload's section into row
    dicts.  Results files written before the newer summary columns existed
    lack those keys, which read as None.
    """

    title: Optional[str]
    columns: Sequence[Tuple[str, Optional[str], Callable[[Any], str]]]
    rows: Callable[[Any], Iterable[Mapping[str, Any]]]


#: The payload's tables in report order, by payload key.
SECTIONS = {
    "cells": Section(
        title=None,
        columns=(
            ("cell", "cell", str),
            ("trials", "trials", str),
            ("disagree", "disagreement_rate", "{:.3f}".format),
            ("msgs/trial", "mean_messages", str),
            ("steps/trial", "mean_steps", str),
            ("drops/trial", "mean_dropped", _dash("{}")),
            ("deliveries/s", "deliveries_per_s", lambda value: _throughput(value or None)),
            ("director actions", "director_actions", _pairs),
            ("value counts", "value_counts", _pairs),
        ),
        rows=lambda cells: [{**summary, "cell": name} for name, summary in sorted(cells.items())],
    ),
    "histograms": Section(
        title="Histogram percentiles",
        columns=(
            ("cell", "cell", str),
            ("metric", "metric", str),
            ("count", "count", lambda count: str(count or 0)),
            ("mean", "mean", _dash("{:g}")),
            ("p50", "p50", _dash("{:g}")),
            ("p90", "p90", _dash("{:g}")),
            ("p99", "p99", _dash("{:g}")),
            ("max", "max", _dash("{:g}")),
        ),
        rows=lambda histograms: [
            {**summary, "cell": cell, "metric": metric}
            for cell in sorted(histograms)
            for metric, summary in sorted(histograms[cell].items())
        ],
    ),
    "contribution": Section(
        title="Per-Factor Contribution",
        columns=(
            ("cell", "cell", str),
            ("trials", "trials", str),
            ("wall s/trial", "wall_s_per_trial", _dash("{:.4f}")),
            ("deliveries/s", "deliveries_per_s", _throughput),
            ("Δwall vs base", "wall_delta_pct", _dash("{:+.1f}%")),
            ("msgs/trial", "mean_messages", "{:.1f}".format),
            ("cache hit", "cache_hit_rate", _percent),
            ("stats", None, _stats),
        ),
        rows=list,
    ),
    "sweep": Section(
        title="Attack Sweep",
        columns=(
            ("cell", "cell", str),
            ("n", "n", str),
            ("trials", "trials", str),
            ("disagree", "disagreement_rate", "{:.3f}".format),
            ("disagree 95% CI", "disagreement_ci", _interval),
            ("Pr[coin=1]", "bias", _dash("{:.3f}")),
            ("bias 95% CI", "bias_ci", _interval),
            ("msgs/trial", "mean_messages", "{:.1f}".format),
            ("msg ratio", "message_ratio", _dash("{:.2f}x")),
        ),
        rows=list,
    ),
}


def section_table(key: str, section: Any) -> Tuple[Tuple[str, ...], List[Tuple[str, ...]]]:
    """The header and formatted rows of the payload section ``key``."""
    spec = SECTIONS[key]
    header = tuple(name for name, _, _ in spec.columns)
    rows = [
        tuple(fmt(row if field is None else row.get(field)) for _, field, fmt in spec.columns)
        for row in spec.rows(section)
    ]
    return header, rows


def render_table(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Fixed-width text table (the CLI's format, reusable from examples)."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(column) for column in header]
    for row in rows:
        widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
    lines = ["  ".join(name.ljust(width) for name, width in zip(header, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _markdown_table(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """GitHub-markdown table; a ``|`` inside a cell (a sweep cell's name) is escaped."""
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell).replace("|", "\\|") for cell in row) + " |")
    return "\n".join(lines) + "\n"


def _tally(claims: Iterable[Mapping[str, Any]]) -> str:
    counts = Counter(claim["status"] for claim in claims)
    return f"{counts['pass']} passed, {counts['fail']} failed, {counts['skip']} skipped"


def _text_claims(campaign: Any, claims: List[Mapping[str, Any]]) -> str:
    lines = [f"claims: {campaign}"]
    for claim in claims:
        lines.append(f"[{claim['status'].upper():4s}] {claim['claim']}: {claim['statement']}")
        lines.append(f"       {claim['detail']}")
    return "\n".join(lines + [_tally(claims)]) + "\n"


def _markdown_claims(campaign: Any, claims: List[Mapping[str, Any]]) -> str:
    rows = [
        (claim["status"], f"`{claim['claim']}`", claim["statement"], claim["detail"])
        for claim in claims
    ]
    table = _markdown_table(("status", "claim", "statement", "evidence"), rows)
    return f"### Claims: {campaign}\n\n{table}\n**{_tally(claims)}.**\n"


class _Format(NamedTuple):
    """How one format writes each part of a report; the walk is shared."""

    title: Callable[[Any], str]
    heading: Callable[[str], str]
    table: Callable[[Sequence[str], Iterable[Sequence[Any]]], str]
    claims: Callable[[Any, List[Mapping[str, Any]]], str]
    note: Callable[[str, str], str]


_FORMATS = {
    "text": _Format(
        title="campaign: {}\n".format,
        heading=lambda title: f"\n{title.lower()}:\n",
        table=render_table,
        claims=_text_claims,
        note=lambda label, text: f"\n{label.lower()}: {text}\n",
    ),
    "markdown": _Format(
        title="## Campaign `{}`\n\n".format,
        heading="\n### {}\n\n".format,
        table=_markdown_table,
        claims=_markdown_claims,
        note="\n**{}:** {}\n".format,
    ),
}


def _format(fmt: str) -> _Format:
    try:
        return _FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown report format {fmt!r}") from None


def render_claims(claims: Mapping[str, Any], fmt: str) -> str:
    """A payload's ``claims`` section (:meth:`ClaimReport.to_dict`) as
    ``text`` or ``markdown``."""
    return _format(fmt).claims(claims.get("campaign", ""), claims.get("claims", []))


def render_report(payload: Mapping[str, Any], fmt: str) -> str:
    """Render a payload as ``text``, ``markdown`` or ``json``.

    Text and markdown are one walk over the payload's sections; the format
    supplies only how each part looks.  A section is rendered when its key
    is in the payload (:func:`build_report` writes no empty histograms or
    failures).
    """
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    style = _format(fmt)
    parts = [style.title(payload.get("campaign"))]
    for key, section in SECTIONS.items():
        if key in payload:
            if section.title is not None:
                parts.append(style.heading(section.title))
            parts.append(style.table(*section_table(key, payload[key])))
    if "claims" in payload:
        parts += ["\n", render_claims(payload["claims"], fmt)]
    if "failures" in payload:
        parts.append(style.note("Quarantined cells", ", ".join(sorted(payload["failures"]))))
    return "".join(parts)
