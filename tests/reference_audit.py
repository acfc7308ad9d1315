"""The audit as it was before it became one pass: the differential
reference for ``replay-verify``, ``monitor-report --replay`` and
``monitor-report``.

Frozen copies of the index that kept every snapshot, decision, outcome,
update and error of a ledger (:class:`ReferenceIndex`), the seq-ordered walk
that replayed its decisions and updates after the fold
(:func:`reconstruct_states`), and the monitor's aggregation over that index
(:func:`compute_metrics`), with each verb's command body and exit codes.
Only what the one-pass audit did not change is imported from the package:
the read pass, the payload classes, the policy logics, the divergence report
and the monitor's alerts and report bytes. ``tests/test_reference_audit.py``
requires the package's verbs to give this reference's exit codes and report
bytes.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Collection, Iterable, NamedTuple

from ledgerloop import policy
from ledgerloop.errors import (
    AuditError,
    ConfigurationError,
    DecodeError,
    LedgerLoopError,
    StorageError,
    StructuralAuditError,
)
from ledgerloop.ledger import ENVIRONMENT_PROFILES, config_digest, encode_float, read_records
from ledgerloop.monitor import DEFAULT_RULES, MetricTable, emit_report, evaluate_alerts
from ledgerloop.replay import DivergenceReport, logic_for, merge_reports
from ledgerloop.runtime import MS_PER_DAY


class Stamp(NamedTuple):
    seq: int
    backend_ts: int
    version_id: str

    @classmethod
    def of(cls, record) -> "Stamp":
        return cls(record.seq, record.backend_ts, record.version_id)


@dataclass
class ReferenceIndex:
    header: object = None
    versions: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    stamped: dict = field(default_factory=dict)
    size: int = 0
    snapshots: dict = field(default_factory=dict)
    decisions: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    pending: dict = field(default_factory=dict)
    updates: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @classmethod
    def fold(cls, records: Iterable) -> "ReferenceIndex":
        index = cls()
        for record in records:
            index.apply(record)
        if index.header is None:
            raise StructuralAuditError("ledger does not start with a HEADER record")
        return index

    def apply(self, record) -> None:
        value = record.payload
        etype = record.event_type
        header = self.header
        if header is None or etype == "HEADER":
            header = self.header = self._begin(record)
        if record.stream_id != header.stream_id or record.environment_profile != header.environment_profile:
            raise StructuralAuditError(
                f"{etype} at seq {record.seq} is stamped stream {record.stream_id!r} in profile "
                f"{record.environment_profile!r}, but the HEADER payload names stream "
                f"{header.stream_id!r} in profile {header.environment_profile!r}"
            )
        self.size += 1
        self.stamped.setdefault(record.version_id, record.seq)
        if etype == "FEATURE_SNAPSHOT":
            self.snapshots[(value.participant_id, value.decision_index)] = (Stamp.of(record), value)
        elif etype == "DECISION":
            key = (value.participant_id, value.decision_index)
            if key in self.decisions:
                raise StructuralAuditError(f"DECISION at seq {record.seq} repeats {key}")
            self.decisions[key] = (Stamp.of(record), value)
        elif etype == "OUTCOME_OBSERVED":
            self.outcomes[record.seq] = value
            self.pending.setdefault(value.participant_id, []).append(record.seq)
        elif etype == "MODEL_UPDATE":
            rows = self.batch(value.participant_id, value.batch_seqs, record.seq)
            pending = self.pending.get(value.participant_id, [])
            self.pending[value.participant_id] = [s for s in pending if s not in value.batch_seqs]
            self.updates.append((Stamp.of(record), value, rows))
        elif etype == "ERROR":
            self.errors.append((Stamp.of(record), value))
        elif etype == "VERSION_CHANGE":
            if value.version_id in self.fingerprints:
                raise StructuralAuditError(
                    f"VERSION_CHANGE at seq {record.seq} activates {value.version_id!r} a second time"
                )
            previous = self.versions[-1][1] if self.versions else None
            if value.previous_version_id != previous:
                raise StructuralAuditError(
                    f"VERSION_CHANGE at seq {record.seq} names previous version "
                    f"{value.previous_version_id!r}, not {previous!r}"
                )
            self.versions.append((record.seq, value.version_id))
            self.fingerprints[value.version_id] = value.fingerprint

    def _begin(self, record):
        if record.event_type != "HEADER":
            raise StructuralAuditError("ledger does not start with a HEADER record")
        if self.header is not None:
            raise StructuralAuditError(f"HEADER at seq {record.seq} is not the ledger's first record")
        header = record.payload
        if header.environment_profile not in ENVIRONMENT_PROFILES:
            raise StructuralAuditError(
                f"HEADER at seq {record.seq} names profile {header.environment_profile!r}, "
                f"not one of {'/'.join(ENVIRONMENT_PROFILES)}"
            )
        if config_digest(header.config) != header.config_digest:
            raise StructuralAuditError(
                f"HEADER config_digest {header.config_digest!r} is not the digest of its config"
            )
        return header

    def batch(self, participant_id: str, batch_seqs, seq: int) -> list:
        if not batch_seqs:
            raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} has an empty batch_seqs")
        if any(a >= b for a, b in zip(batch_seqs, batch_seqs[1:])):
            raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} has non-increasing batch_seqs")
        rows = []
        for outcome_seq in batch_seqs:
            outcome = self.outcomes.get(outcome_seq)
            problem = None
            if outcome_seq >= seq:
                problem = f"references future seq {outcome_seq}"
            elif outcome is None:
                problem = f"references seq {outcome_seq}, which is not an OUTCOME_OBSERVED event"
            elif outcome.participant_id != participant_id:
                problem = f"has outcome seq {outcome_seq} of another participant"
            elif outcome_seq not in self.pending[participant_id]:
                problem = f"has outcome seq {outcome_seq} consumed twice"
            if problem is not None:
                raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} {problem}")
            key = (participant_id, outcome.decision_index)
            if key not in self.snapshots or key not in self.decisions:
                raise StructuralAuditError(
                    f"outcome at seq {outcome_seq} references decision "
                    f"{outcome.decision_index} with no snapshot/decision"
                )
            rows.append((self.snapshots[key][1], self.decisions[key][1].action, outcome.reward))
        return rows

    def version_at(self, seq: int) -> str:
        i = bisect_right(self.versions, seq, key=itemgetter(0))
        if i == 0:
            raise StructuralAuditError(f"no version active at seq {seq}")
        return self.versions[i - 1][1]


def registered_logics(index: ReferenceIndex, versions: Collection[str] | None = None) -> dict:
    built: dict = {}
    logics = {}
    for version_id, fingerprint in index.fingerprints.items():
        if versions is not None and version_id not in versions:
            continue
        if fingerprint not in built:
            try:
                built[fingerprint] = logic_for(fingerprint)
            except AuditError as exc:
                raise AuditError(f"version {version_id!r}: {exc}") from None
        logics[version_id] = built[fingerprint]
    return logics


_AT_SEQ = itemgetter(0)


def reconstruct_states(index: ReferenceIndex, logic_by_version=None):
    """(final states, decision report, update report) of the walk."""
    config = index.header.model
    if logic_by_version is None:
        logic_by_version = registered_logics(index)
    named = [(seq, version_id) for version_id, seq in index.stamped.items()] + index.versions
    for seq, version_id in sorted(named, key=_AT_SEQ):
        if version_id not in logic_by_version:
            raise AuditError(f"version {version_id!r} at seq {seq} has no registered logic")
    for seq, version_id in index.versions:
        logic, recorded = logic_by_version[version_id], index.fingerprints[version_id]
        if logic.fingerprint != recorded:
            raise AuditError(
                f"version {version_id!r} at seq {seq} records fingerprint {recorded}, "
                f"not that of {logic.name} ({logic.fingerprint})"
            )

    initial = logic_by_version[next(iter(index.stamped))].init_state(config)
    pids = [*index.header.participants, *(pid for pid, _ in index.snapshots)]
    states = dict.fromkeys(pids, initial)
    decisions, updates = DivergenceReport(), DivergenceReport()
    deployment_seed = index.header.deployment_seed
    walk = heapq.merge(
        ((stamp, decision, None) for stamp, decision in index.decisions.values()),
        index.updates,
        key=_AT_SEQ,
    )
    for stamp, value, rows in walk:
        seq, pid = stamp.seq, value.participant_id
        if rows is None:
            idx = value.decision_index
            snap = index.snapshots.get((pid, idx))
            if snap is None or snap[0].seq >= seq:
                raise StructuralAuditError(
                    f"DECISION at seq {seq} has no prior FEATURE_SNAPSHOT for ({pid}, {idx})"
                )
            version_id = index.version_at(seq)
            if stamp.version_id != version_id or value.version_id != version_id:
                decisions.record(seq, "version_id", value.version_id, version_id)
            seed = policy.derive_decision_seed(deployment_seed, pid, idx)
            if seed != value.seed:
                decisions.record(seq, "seed", str(value.seed), str(seed))
            if value.fallback:
                expected = (("pi", value.pi, 0.5), ("pi_raw", value.pi_raw, 0.5))
            else:
                logic = logic_by_version[version_id]
                try:
                    pi_raw, pi = logic.action_probability(states[pid], snap[1], config)
                except LedgerLoopError as exc:
                    logged = encode_float(value.pi_raw)
                    decisions.record(seq, "pi_raw", logged, f"error:{type(exc).__name__}")
                    continue
                expected = (("pi_raw", value.pi_raw, pi_raw), ("pi", value.pi, pi))
            for path, logged, recomputed in expected:
                if encode_float(logged) != encode_float(recomputed):
                    decisions.record(seq, path, encode_float(logged), encode_float(recomputed))
            action = policy.decide(value.pi, value.seed)
            if action != value.action:
                decisions.record(seq, "action", str(value.action), str(action))
            continue
        pre_hash = states[pid].state_hash
        if value.pre_state_hash != pre_hash:
            updates.record(seq, "pre_state_hash", value.pre_state_hash.hex(), pre_hash.hex())
        try:
            new_state = logic_by_version[stamp.version_id].update_posterior(
                states[pid], rows, config, last_update_seq=max(value.batch_seqs)
            )
        except LedgerLoopError as exc:
            updates.record(seq, "post_state", value.post_state.hex(), f"error:{type(exc).__name__}")
        else:
            states[pid] = new_state
            recomputed = policy.canonical_serialize(new_state)
            if value.post_state != recomputed:
                updates.record(seq, "post_state", value.post_state.hex(), recomputed.hex())
        logged_digest = hashlib.sha256(value.post_state).digest()
        if value.post_state_hash != logged_digest:
            updates.record(seq, "post_state_hash", value.post_state_hash.hex(), logged_digest.hex())
    decisions.counts["decisions_checked"] = len(index.decisions)
    updates.counts["updates_checked"] = len(index.updates)
    return states, decisions, updates


def replay_verify(index: ReferenceIndex, logic_by_version=None) -> DivergenceReport:
    _, decisions, updates = reconstruct_states(index, logic_by_version)
    merged = merge_reports(decisions, updates)
    merged.counts["events_total"] = index.size
    merged.counts["snapshots_seen"] = len(index.snapshots)
    merged.counts["outcomes_seen"] = len(index.outcomes)
    return merged


def _day_metrics(scheduled, decisions, snapshot_entries, updates, update_failures, errors) -> dict:
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


def compute_metrics(index: ReferenceIndex) -> MetricTable:
    header = index.header
    k = header.schedule.points_per_day
    trial_days = header.schedule.trial_days
    trial_start = header.schedule.trial_start_ts
    n_participants = len(header.participants)

    def ts_day(ts: int) -> int:
        return min(max((ts - trial_start) // MS_PER_DAY, 0), trial_days - 1)

    decisions_by_day: dict = defaultdict(list)
    for _, decision in index.decisions.values():
        decisions_by_day[decision.decision_index // k].append(decision)
    entries_by_day: dict = defaultdict(list)
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


def replay_verify_verb(ledger: Path) -> tuple[int, bytes | None]:
    """``replay-verify --out``: its exit code and the report bytes it writes."""
    def run():
        report = replay_verify(ReferenceIndex.fold(read_records(ledger)))
        return (0 if report.exact else 1), report.to_bytes()

    return _exit_code(run)


def monitor_replay_verb(ledger: Path) -> tuple[int, bytes | None]:
    """``monitor-report --replay`` with the default rules: its exit code and
    the report bytes it writes."""
    def run():
        index = ReferenceIndex.fold(read_records(ledger))
        metrics = compute_metrics(index)
        divergence = replay_verify(index)
        alerts = evaluate_alerts(metrics, list(DEFAULT_RULES))
        return (0 if divergence.exact else 1), emit_report(metrics, alerts, divergence)

    return _exit_code(run)


def monitor_verb(ledger: Path) -> tuple[int, bytes | None]:
    """``monitor-report`` with the default rules and no replay."""
    def run():
        metrics = compute_metrics(ReferenceIndex.fold(read_records(ledger)))
        return 0, emit_report(metrics, evaluate_alerts(metrics, list(DEFAULT_RULES)))

    return _exit_code(run)


def _exit_code(run) -> tuple[int, bytes | None]:
    try:
        return run()
    except ConfigurationError:
        return 64, None
    except StorageError:
        return 74, None
    except (DecodeError, AuditError):
        return 2, None
    except LedgerLoopError:
        return 64, None
