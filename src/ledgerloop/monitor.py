"""Offline monitoring pass: fidelity metrics, alert rules, report emission.

The monitor is read-mostly: it recomputes intervention-fidelity metrics from
the ledger and may append ALERT events, but never touches existing records.
The shared :class:`ledgerloop.events.StreamIndex` counts, as it folds the
ledger's records, everything the metrics need; the monitor only turns those
counts into the table, so it adds no pass over the ledger or the index.
Metrics are defined so that a healthy trial is exactly clean (coverage 1.0,
fallback rate 0.0) and every number is reproducible from the ledger alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import events
from .errors import ConfigurationError
from .ledger import Ledger, report_bytes
from .replay import DivergenceReport

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


def _day_metrics(scheduled: int, counts: events.Counts) -> dict:
    n = counts.decisions
    cycles = counts.updates + counts.update_failures
    return {
        "scheduled": scheduled,
        "decision_count": n,
        "decision_coverage": n / scheduled if scheduled else 0.0,
        "fallback_rate": counts.fallbacks / n if n else 0.0,
        "update_success_rate": counts.updates / cycles if cycles else 1.0,
        "data_completeness": counts.observed / counts.tags if counts.tags else 0.0,
        "error_count": counts.errors,
        "mean_pi": counts.pi_sum.value() / n if n else 0.0,
    }


def compute_metrics(index: events.StreamIndex) -> MetricTable:
    """Per-day and overall fidelity metrics of one trial ledger, from the
    counts its index keeps (:class:`ledgerloop.events.Counts`): decisions
    and snapshots count on the day of their decision index, updates and
    errors on that of their backend timestamp.
    """
    header, schedule = index.header, index.header.schedule
    table = MetricTable(header.stream_id, header.environment_profile, len(header.participants),
                        schedule.trial_days, schedule.points_per_day)
    scheduled = table.n_participants * table.points_per_day
    idle = events.Counts()
    table.per_day = {day: _day_metrics(scheduled, index.days.get(day, idle)) for day in range(table.trial_days)}
    table.overall = _day_metrics(scheduled * table.trial_days, index.totals)
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
            ledger.append(
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
