"""Offline monitoring pass: fidelity metrics, alert rules, report emission.

The monitor is read-mostly: it recomputes intervention-fidelity metrics from
the ledger and may append ALERT events, but never touches existing records.
Metrics are defined so that a healthy trial is exactly clean (coverage 1.0,
fallback rate 0.0) and every number is reproducible from the ledger alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import events
from .errors import AuditError, ConfigurationError
from .ledger import Ledger, canonical_json_bytes, encode_float
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


def compute_metrics(ledger: Ledger) -> MetricTable:
    """Per-day and overall fidelity metrics for one trial ledger.

    Precondition: the ledger's chain verifies. Every Ledger satisfies it: one
    from :meth:`Ledger.open` was verified on load, and an appended record is
    hashed from its canonical bytes. Decisions and snapshots attribute to
    days by decision index; updates and errors by backend timestamp.
    """
    records = ledger.records()
    if not records or records[0].event_type != "HEADER":
        raise AuditError("ledger does not start with a HEADER record")
    header = events.parse_header(records[0].payload)
    schedule_cfg = header.config["schedule"]
    participants = header.config.get("participants", [])
    k = len(schedule_cfg["decision_times"])
    trial_days = int(schedule_cfg["trial_days"])
    trial_start = int(schedule_cfg.get("trial_start_ts", 0))
    n_participants = len(participants)

    decisions_by_day: dict[int, list] = {d: [] for d in range(trial_days)}
    entries_by_day: dict[int, list] = {d: [] for d in range(trial_days)}
    updates_by_day: dict[int, int] = {d: 0 for d in range(trial_days)}
    update_failures_by_day: dict[int, int] = {d: 0 for d in range(trial_days)}
    errors_by_day: dict[int, int] = {d: 0 for d in range(trial_days)}

    def ts_day(ts: int) -> int:
        return min(max((ts - trial_start) // MS_PER_DAY, 0), trial_days - 1)

    for record in records:
        etype = record.event_type
        if etype == "DECISION":
            decision = events.parse_decision(record.payload)
            decisions_by_day.setdefault(decision.decision_index // k, []).append(decision)
        elif etype == "FEATURE_SNAPSHOT":
            _, idx, snapshot = events.parse_snapshot(record.payload)
            entries_by_day.setdefault(idx // k, []).extend(snapshot.provenance)
        elif etype == "MODEL_UPDATE":
            updates_by_day[ts_day(record.backend_ts)] += 1
        elif etype == "ERROR":
            day = ts_day(record.backend_ts)
            errors_by_day[day] += 1
            if record.payload.get("kind") == "update_failure":
                update_failures_by_day[day] += 1

    table = MetricTable(
        stream_id=records[0].stream_id,
        environment_profile=records[0].environment_profile,
        n_participants=n_participants,
        trial_days=trial_days,
        points_per_day=k,
    )
    scheduled_per_day = n_participants * k
    for day in range(trial_days):
        table.per_day[day] = _day_metrics(
            scheduled_per_day,
            decisions_by_day.get(day, []),
            entries_by_day.get(day, []),
            updates_by_day.get(day, 0),
            update_failures_by_day.get(day, 0),
            errors_by_day.get(day, 0),
        )
    all_decisions = [d for day in sorted(decisions_by_day) for d in decisions_by_day[day]]
    all_entries = [e for day in sorted(entries_by_day) for e in entries_by_day[day]]
    table.overall = _day_metrics(
        scheduled_per_day * trial_days,
        all_decisions,
        all_entries,
        sum(updates_by_day.values()),
        sum(update_failures_by_day.values()),
        sum(errors_by_day.values()),
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
        records = ledger.records()
        backend_ts = records[-1].backend_ts if records else 0
        version_id = records[-1].version_id if records else "unknown"
        for alert in fired:
            ledger.append(
                "ALERT",
                events.alert_payload(
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

    def fmt(values: dict) -> dict:
        out = {}
        for key, value in values.items():
            if isinstance(value, float):
                out[key] = {"dec": repr(value), "hex": encode_float(value)}
            else:
                out[key] = value
        return out

    lines = [b"# ledgerloop monitor report v1"]
    lines.append(
        canonical_json_bytes(
            {
                "kind": "context",
                "stream_id": metrics.stream_id,
                "environment_profile": metrics.environment_profile,
                "n_participants": metrics.n_participants,
                "trial_days": metrics.trial_days,
                "points_per_day": metrics.points_per_day,
            }
        )
    )
    lines.append(canonical_json_bytes({"kind": "overall", "metrics": fmt(metrics.overall)}))
    for day in sorted(metrics.per_day):
        lines.append(
            canonical_json_bytes(
                {"kind": "day", "day": day, "metrics": fmt(metrics.per_day[day])}
            )
        )
    for alert in alerts:
        lines.append(
            canonical_json_bytes(
                {
                    "kind": "alert",
                    "metric": alert.rule.metric,
                    "comparator": alert.rule.comparator,
                    "threshold": {
                        "dec": repr(alert.rule.threshold),
                        "hex": encode_float(alert.rule.threshold),
                    },
                    "value": {"dec": repr(alert.value), "hex": encode_float(alert.value)},
                    "window": alert.rule.window,
                    "day": alert.day,
                    "severity": alert.rule.severity,
                    "message": alert.message,
                }
            )
        )
    if divergence is not None:
        lines.append(
            canonical_json_bytes(
                {
                    "kind": "replay",
                    "status": divergence.status,
                    "first_divergent_seq": divergence.first_divergent_seq,
                    "deployment_reproducibility": "PASS" if divergence.exact else "FAIL",
                }
            )
        )
    lines.append(
        canonical_json_bytes(
            {
                "kind": "summary",
                "alert_count": len(alerts),
                "replay_included": divergence is not None,
            }
        )
    )
    return b"\n".join(lines) + b"\n"
