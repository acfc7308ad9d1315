"""Offline monitoring pass: fidelity metrics, alert rules, report emission.

The monitor is read-mostly: it recomputes intervention-fidelity metrics from
the ledger and may append ALERT events, but never touches existing records.
It reads the ledger through the shared :class:`ledgerloop.events.StreamIndex`
and only adds the per-day aggregation.
Metrics are defined so that a healthy trial is exactly clean (coverage 1.0,
fallback rate 0.0) and every number is reproducible from the ledger alone.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from . import events
from .errors import ConfigurationError
from .ledger import Ledger, report_bytes
from .replay import DivergenceReport
from .runtime import MS_PER_DAY

METRIC_NAMES = (
    "decision_coverage",
    "fallback_rate",
    "update_success_rate",
    "data_completeness",
    "error_count",
    "mean_pi",
)

COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class AlertRule:
    metric: str
    comparator: str
    threshold: float
    window: str = "per-day"  # per-day | overall
    severity: str = "medium"

    def __post_init__(self):
        if self.metric not in METRIC_NAMES:
            raise ConfigurationError(f"unknown metric {self.metric!r} in alert rule")
        if self.comparator not in COMPARATORS:
            raise ConfigurationError(f"unknown comparator {self.comparator!r} in alert rule")
        if self.window not in ("per-day", "overall"):
            raise ConfigurationError(f"alert window must be per-day or overall, got {self.window!r}")
        object.__setattr__(self, "threshold", float(self.threshold))


#: Shipped defaults; thresholds are starting points meant to be tuned in the twin.
DEFAULT_RULES = (
    AlertRule("decision_coverage", "<", 0.95, "per-day", "high"),
    AlertRule("fallback_rate", ">", 0.2, "per-day", "medium"),
    AlertRule("data_completeness", "<", 0.5, "per-day", "low"),
    AlertRule("error_count", ">", 0.0, "per-day", "medium"),
)


@dataclass
class MetricTable:
    stream_id: str
    environment_profile: str
    n_participants: int
    trial_days: int
    points_per_day: int
    overall: dict = field(default_factory=dict)
    per_day: dict = field(default_factory=dict)  # day -> {metric: value}

    def value(self, metric: str, day: int | None = None):
        table = self.overall if day is None else self.per_day.get(day, {})
        if metric not in table:
            raise ConfigurationError(f"metric {metric!r} not present")
        return table[metric]


def _day_metrics(
    scheduled: int,
    decisions: list,
    snapshot_entries: list[str],
    updates: int,
    update_failures: int,
    errors: int,
) -> dict:
    n = len(decisions)
    fallbacks = sum(1 for d in decisions if d.fallback)
    observed = sum(1 for tag in snapshot_entries if tag == "observed")
    cycles = updates + update_failures
    return {
        "scheduled": scheduled,
        "decision_count": n,
        "decision_coverage": n / scheduled if scheduled else 0.0,
        "fallback_rate": fallbacks / n if n else 0.0,
        "update_success_rate": updates / cycles if cycles else 1.0,
        "data_completeness": observed / len(snapshot_entries) if snapshot_entries else 0.0,
        "error_count": errors,
        "mean_pi": math.fsum(d.pi for d in decisions) / n if n else 0.0,
    }


def compute_metrics(index: events.StreamIndex) -> MetricTable:
    """Per-day and overall fidelity metrics for one trial ledger's index.
    Decisions and snapshots attribute to days by decision index; updates and
    errors by backend timestamp.
    """
    header = index.header
    k = header.schedule.points_per_day
    trial_days = header.schedule.trial_days
    trial_start = header.schedule.trial_start_ts
    n_participants = len(header.participants)

    def ts_day(ts: int) -> int:
        return min(max((ts - trial_start) // MS_PER_DAY, 0), trial_days - 1)

    decisions_by_day: dict[int, list] = defaultdict(list)
    for _, decision in index.decisions.values():
        decisions_by_day[decision.decision_index // k].append(decision)
    entries_by_day: dict[int, list] = defaultdict(list)
    for (_, idx), (_, snapshot) in index.snapshots.items():
        entries_by_day[idx // k].extend(snapshot.provenance)
    updates_by_day = Counter(ts_day(stamp.backend_ts) for stamp, _, _ in index.updates)
    errors_by_day = Counter(ts_day(stamp.backend_ts) for stamp, _ in index.errors)
    update_failures_by_day = Counter(
        ts_day(stamp.backend_ts) for stamp, error in index.errors if error.kind == "update_failure"
    )

    table = MetricTable(
        stream_id=header.stream_id,
        environment_profile=header.environment_profile,
        n_participants=n_participants,
        trial_days=trial_days,
        points_per_day=k,
    )
    scheduled_per_day = n_participants * k
    for day in range(trial_days):
        table.per_day[day] = _day_metrics(
            scheduled_per_day,
            decisions_by_day[day],
            entries_by_day[day],
            updates_by_day[day],
            update_failures_by_day[day],
            errors_by_day[day],
        )
    table.overall = _day_metrics(
        scheduled_per_day * trial_days,
        [decision for _, decision in index.decisions.values()],
        [tag for _, snapshot in index.snapshots.values() for tag in snapshot.provenance],
        len(index.updates),
        update_failures_by_day.total(),
        len(index.errors),
    )
    return table


@dataclass(frozen=True)
class Alert:
    rule: AlertRule
    day: int | None
    value: float

    @property
    def message(self) -> str:
        where = "overall" if self.day is None else f"day {self.day}"
        return (
            f"{self.rule.metric} {self.rule.comparator} {self.rule.threshold} "
            f"({where}: value {self.value})"
        )


def evaluate_alerts(
    metrics: MetricTable, rules: list[AlertRule], ledger: Ledger | None = None
) -> list[Alert]:
    """Evaluate rules in order (per-day rules over days in order) and fire
    alerts deterministically; when a ledger is given, append each fired alert
    as an ALERT event."""
    fired: list[Alert] = []
    for rule in rules:
        compare = COMPARATORS[rule.comparator]
        if rule.window == "overall":
            value = float(metrics.value(rule.metric))
            if compare(value, rule.threshold):
                fired.append(Alert(rule, None, value))
        else:
            for day in sorted(metrics.per_day):
                value = float(metrics.value(rule.metric, day))
                if compare(value, rule.threshold):
                    fired.append(Alert(rule, day, value))
    if ledger is not None and fired:
        last = ledger.last()
        backend_ts = last.backend_ts if last is not None else 0
        version_id = last.version_id if last is not None else "unknown"
        for alert in fired:
            events.append(
                ledger,
                events.AlertInfo(
                    metric=alert.rule.metric,
                    comparator=alert.rule.comparator,
                    threshold=alert.rule.threshold,
                    value=alert.value,
                    window=alert.rule.window,
                    day=alert.day,
                    severity=alert.rule.severity,
                ),
                backend_ts=backend_ts,
                version_id=version_id,
            )
    return fired


def emit_report(
    metrics: MetricTable,
    alerts: list[Alert],
    divergence: DivergenceReport | None = None,
) -> bytes:
    """Canonical report: context, per-day and overall metrics, alerts, and
    the replay verdict when one was supplied. Same inputs, same bytes."""
    items = [
        {
            "kind": "context",
            "stream_id": metrics.stream_id,
            "environment_profile": metrics.environment_profile,
            "n_participants": metrics.n_participants,
            "trial_days": metrics.trial_days,
            "points_per_day": metrics.points_per_day,
        },
        {"kind": "overall", "metrics": metrics.overall},
    ]
    items += [{"kind": "day", "day": d, "metrics": m} for d, m in sorted(metrics.per_day.items())]
    for alert in alerts:
        items.append(
            {
                "kind": "alert",
                "metric": alert.rule.metric,
                "comparator": alert.rule.comparator,
                "threshold": alert.rule.threshold,
                "value": alert.value,
                "window": alert.rule.window,
                "day": alert.day,
                "severity": alert.rule.severity,
                "message": alert.message,
            }
        )
    if divergence is not None:
        items.append(
            {
                "kind": "replay",
                "status": divergence.status,
                "first_divergent_seq": divergence.first_divergent_seq,
                "deployment_reproducibility": "PASS" if divergence.exact else "FAIL",
            }
        )
    items.append(
        {"kind": "summary", "alert_count": len(alerts), "replay_included": divergence is not None}
    )
    return report_bytes("monitor", items)
