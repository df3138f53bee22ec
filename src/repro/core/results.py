"""Aggregated experiment results.

The one-call runners in :mod:`repro.core.api` return a
:class:`~repro.net.runtime.SimulationResult` per execution; the helpers here
aggregate many executions (different seeds) into the statistics the paper's
theorems talk about: per-value output frequencies, disagreement rates,
fair-validity rates, message counts and shun counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.net.runtime import SimulationResult
from repro.schema import jsonable


def _merge_histograms(
    target: Optional[Dict[str, Any]], incoming: Dict[str, Any]
) -> Dict[str, Any]:
    """Bucketwise histogram merge (lazy import: obs builds on core elsewhere)."""
    from repro.obs.metrics import merge_histogram_dicts

    return merge_histogram_dicts(target, incoming)


@dataclass
class TrialAggregate:
    """Statistics over a batch of simulated executions of one protocol.

    All fields except ``total_elapsed_s`` are deterministic functions of the
    trials (parallel and sequential campaign runs produce byte-identical
    aggregates); ``total_elapsed_s`` accumulates wall-clock time and backs
    the advisory deliveries/sec throughput column, so it is excluded from
    :meth:`to_dict` and carried separately by the result store.
    """

    trials: int = 0
    disagreements: int = 0
    value_counts: Counter = field(default_factory=Counter)
    total_messages: int = 0
    total_steps: int = 0
    total_shun_events: int = 0
    total_dropped: int = 0
    #: Scenario-director action counts (corrupt/silence/recover/...), summed
    #: over the trials that ran under a director.  A party counts one
    #: ``corrupt`` a trial: the director logs it again when it re-corrupts a
    #: party it restarted, and its budget charges that party once.
    director_actions: Counter = field(default_factory=Counter)
    #: Structured-metrics counter totals from trials run with a registry.
    #: Includes the per-network crypto-plane cache deltas folded in under
    #: ``crypto.plane.*`` names, which back the ablation harness's
    #: cache-hit-rate column.  The process-global Lagrange / plan-dispatch
    #: counters are deliberately NOT folded in -- their hit/miss split
    #: depends on cache warmth from earlier trials in the same process.
    metric_counters: Counter = field(default_factory=Counter)
    #: Message counts by payload kind (string keys), summed over trials that
    #: collected message stats (traced or metered trace-free).
    sent_by_kind: Counter = field(default_factory=Counter)
    #: Merged structured-metrics histograms (``Histogram.to_dict`` payloads
    #: keyed by metric name), bucketwise-summed across trials -- the source
    #: of the completion-step / queue-depth percentiles in reports.
    metric_histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    outputs: List[Any] = field(default_factory=list)
    total_elapsed_s: float = 0.0

    def add(self, result: SimulationResult) -> None:
        """Fold one execution into the aggregate.

        Message totals come from the trace's counters
        (:meth:`SimulationResult.message_stats`), kept whether tracing was on
        or off -- so campaigns on the trace-free fast path report real
        message counts instead of zeros.
        """
        self.trials += 1
        stats = result.message_stats
        if stats is not None:
            self.total_messages += stats["messages_sent"]
            self.total_shun_events += stats["shun_events"]
            self.total_dropped += stats["messages_dropped"]
            for kind, count in (stats.get("sent_by_kind") or {}).items():
                self.sent_by_kind[str(kind)] += count
        self.total_steps += result.steps
        self.total_elapsed_s += getattr(result, "elapsed_s", 0.0)
        director = result.network.director
        if director is not None:
            corrupted = set()
            for _step, action, pid, _detail in getattr(director, "actions", ()):
                if action == "corrupt":
                    if pid in corrupted:
                        continue
                    corrupted.add(pid)
                self.director_actions[action] += 1
        if result.metrics is not None:
            self.metric_counters.update(result.metrics.get("counters", {}))
            crypto = result.metrics.get("crypto") or {}
            # Only the crypto-*plane* cache is folded in: it lives on the
            # trial's own network, so its hit/miss split is a deterministic
            # function of the trial.  The Lagrange and plan-dispatch deltas
            # track process-global caches whose warmth depends on which
            # trials ran earlier in the same process -- folding them would
            # break the parallel == sequential aggregate guarantee.
            for key, value in (crypto.get("plane_cache") or {}).items():
                # Cache *sizes* are end-of-trial gauges, not additive;
                # zero counts stay absent (``Counter.__add__`` drops
                # zeros, so folding them would break merge identity).
                if value and not key.endswith("_size"):
                    self.metric_counters["crypto.plane." + key] += value
            for name, hist in (result.metrics.get("histograms") or {}).items():
                self.metric_histograms[name] = _merge_histograms(
                    self.metric_histograms.get(name), hist
                )
        if result.disagreement:
            self.disagreements += 1
            self.outputs.append(dict(result.outputs))
            return
        value = result.values[0] if result.values else None
        self.outputs.append(value)
        self.value_counts[repr(value)] += 1

    # ------------------------------------------------------------------
    def merge(self, other: "TrialAggregate") -> "TrialAggregate":
        """Return a new aggregate combining ``self`` then ``other``.

        Merging preserves trial order (``self``'s outputs come first), so
        folding per-chunk aggregates back together in dispatch order yields
        exactly the aggregate a sequential run would have produced.  The
        operation is associative with :meth:`empty` as identity, which is what
        lets the campaign runner fan chunks out to worker processes.
        """
        combined = TrialAggregate(
            trials=self.trials + other.trials,
            disagreements=self.disagreements + other.disagreements,
            value_counts=self.value_counts + other.value_counts,
            total_messages=self.total_messages + other.total_messages,
            total_steps=self.total_steps + other.total_steps,
            total_shun_events=self.total_shun_events + other.total_shun_events,
            total_dropped=self.total_dropped + other.total_dropped,
            director_actions=self.director_actions + other.director_actions,
            metric_counters=self.metric_counters + other.metric_counters,
            sent_by_kind=self.sent_by_kind + other.sent_by_kind,
            outputs=self.outputs + other.outputs,
            total_elapsed_s=self.total_elapsed_s + other.total_elapsed_s,
        )
        # ``Counter.__add__`` drops zero/negative entries; histogram payloads
        # need an explicit keywise merge instead.
        histograms = {
            name: _merge_histograms(None, hist)
            for name, hist in self.metric_histograms.items()
        }
        for name, hist in other.metric_histograms.items():
            histograms[name] = _merge_histograms(histograms.get(name), hist)
        combined.metric_histograms = histograms
        return combined

    @classmethod
    def empty(cls) -> "TrialAggregate":
        """The identity element for :meth:`merge`."""
        return cls()

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-compatible representation (lossless up to :func:`~repro.schema.jsonable`).

        Unlike :meth:`summary` this keeps the raw totals and per-trial
        outputs, so aggregates can be persisted, shipped across process
        boundaries and recombined with :meth:`merge` after
        :meth:`from_dict`.
        """
        return {
            "trials": self.trials,
            "disagreements": self.disagreements,
            "value_counts": dict(self.value_counts),
            "total_messages": self.total_messages,
            "total_steps": self.total_steps,
            "total_shun_events": self.total_shun_events,
            "total_dropped": self.total_dropped,
            "director_actions": dict(self.director_actions),
            "metric_counters": dict(self.metric_counters),
            "sent_by_kind": dict(self.sent_by_kind),
            "metric_histograms": {
                name: dict(hist) for name, hist in self.metric_histograms.items()
            },
            "outputs": [jsonable(output) for output in self.outputs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrialAggregate":
        """Rebuild an aggregate from :meth:`to_dict` output.

        The observability fields default when absent so stores written
        before they existed keep loading.
        """
        return cls(
            trials=int(data["trials"]),
            disagreements=int(data["disagreements"]),
            value_counts=Counter(data["value_counts"]),
            total_messages=int(data["total_messages"]),
            total_steps=int(data["total_steps"]),
            total_shun_events=int(data["total_shun_events"]),
            total_dropped=int(data.get("total_dropped", 0)),
            director_actions=Counter(data.get("director_actions", {})),
            metric_counters=Counter(data.get("metric_counters", {})),
            sent_by_kind=Counter(data.get("sent_by_kind", {})),
            metric_histograms={
                name: dict(hist)
                for name, hist in data.get("metric_histograms", {}).items()
            },
            outputs=list(data["outputs"]),
        )

    def to_transport_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` plus the advisory wall-clock total.

        Used when an aggregate crosses a process boundary and comes straight
        back (campaign chunk results): the deterministic artifact contract of
        :meth:`to_dict` is for *persisted* statistics, but dropping timing in
        transit would zero the throughput column of parallel runs.
        """
        payload = self.to_dict()
        payload["total_elapsed_s"] = self.total_elapsed_s
        return payload

    @classmethod
    def from_transport_dict(cls, data: Dict[str, Any]) -> "TrialAggregate":
        """Inverse of :meth:`to_transport_dict` (timing key optional)."""
        aggregate = cls.from_dict(data)
        aggregate.total_elapsed_s = float(data.get("total_elapsed_s", 0.0))
        return aggregate

    # ------------------------------------------------------------------
    def frequency(self, value: Any) -> float:
        """Fraction of agreeing trials whose common output was ``value``."""
        if self.trials == 0:
            return 0.0
        return self.value_counts[repr(value)] / self.trials

    @property
    def disagreement_rate(self) -> float:
        """Fraction of trials in which honest parties disagreed."""
        return self.disagreements / self.trials if self.trials else 0.0

    @property
    def mean_messages(self) -> float:
        """Average number of messages sent per trial."""
        return self.total_messages / self.trials if self.trials else 0.0

    @property
    def mean_steps(self) -> float:
        """Average number of deliveries needed per trial."""
        return self.total_steps / self.trials if self.trials else 0.0

    @property
    def mean_shun_events(self) -> float:
        """Average number of shunning events per trial."""
        return self.total_shun_events / self.trials if self.trials else 0.0

    @property
    def mean_dropped(self) -> float:
        """Average number of dropped (shunned) deliveries per trial."""
        return self.total_dropped / self.trials if self.trials else 0.0

    @property
    def deliveries_per_s(self) -> Optional[float]:
        """Throughput (delivered messages / wall-clock second), or None.

        None when no timing was recorded -- e.g. aggregates reloaded from
        stores written before throughput tracking existed.
        """
        if self.total_elapsed_s <= 0.0:
            return None
        return self.total_steps / self.total_elapsed_s

    def hit_rate(self, predicate) -> float:
        """Fraction of agreeing trials whose output satisfies ``predicate``."""
        if self.trials == 0:
            return 0.0
        hits = sum(
            1
            for output in self.outputs
            if not isinstance(output, dict) and predicate(output)
        )
        return hits / self.trials

    def summary(self) -> Dict[str, Any]:
        """Headline metrics as a plain dictionary (a report's per-cell row)."""
        throughput = self.deliveries_per_s
        return {
            "trials": self.trials,
            "disagreement_rate": self.disagreement_rate,
            "value_counts": dict(self.value_counts),
            "mean_messages": round(self.mean_messages, 1),
            "mean_steps": round(self.mean_steps, 1),
            "mean_shun_events": round(self.mean_shun_events, 3),
            "mean_dropped": round(self.mean_dropped, 3),
            "director_actions": dict(self.director_actions),
            "sent_by_kind": dict(self.sent_by_kind),
            "deliveries_per_s": None if throughput is None else round(throughput),
        }


def aggregate(results: Iterable[SimulationResult]) -> TrialAggregate:
    """Aggregate an iterable of simulation results."""
    stats = TrialAggregate()
    for result in results:
        stats.add(result)
    return stats
