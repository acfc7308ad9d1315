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

Two changes were made since it was frozen, as in the package. A logic that
raises any exception on a logged input, not only a ``LedgerLoopError``, is
recorded as ``error:<type>``, since the runtime takes any exception for a
fallback decision or a failed update. And a participant's decisions come in
increasing decision index, no snapshot of it following a decision of the
same or a later point, with the package's texts; a batch seq that is no
pending outcome has one text, whether it is another event or consumed.

Six rules were added later, as in the package, each with a text of its
own here: a DATA_INGESTED or OUTCOME_OBSERVED payload's ``device_ts`` is its
envelope's; a participant's snapshots come in non-decreasing decision
index; a snapshot's imputation method is ``"locf"`` for each ``imputed``
entry and None for every other; a snapshot is assembled at its point's due
time; an ERROR's kind is ``policy_exception`` or ``update_failure``, its
decision index, if any, one the schedule has; and a policy_exception ERROR
and the fallback DECISION of its point, with the ERROR's message as its
reason, come as a pair, one right after the other, and never apart.

Later still, as in the package, and with code of this module's own: a
DATA_INGESTED names as superseded the last snapshot of the point whose
window, ``(due_ts(j - 1), due_ts(j)]``, holds its ``device_ts``; and a
decision's fallback is derived, not only checked for its shape. The
injection gate is drawn again from the HEADER with ``ledgerloop.rng``, the
logic is asked as before, and the reason either gives must be the logged
``fallback_reason`` (None for a computed decision). A computed decision the
gate fails reads ``error:InjectedFailure`` on ``pi_raw``, as one the logic
fails on reads ``error:<type>``.
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
from ledgerloop.config import MS_PER_DAY
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
from ledgerloop.rng import SplitMix64, derive_seed


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
    last_decided: dict = field(default_factory=dict)
    last_snapshot: dict = field(default_factory=dict)  # participant -> its last snapshot's decision index
    consumed: set = field(default_factory=set)  # points whose outcome an update consumed
    updates: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    previous: object = None  # the last record folded

    @classmethod
    def fold(cls, records: Iterable) -> "ReferenceIndex":
        index = cls()
        for record in records:
            index.apply(record)
        if index.header is None:
            raise StructuralAuditError("ledger does not start with a HEADER record")
        if _is_policy_exception(index.previous):
            raise StructuralAuditError(f"the ledger ends on the policy_exception ERROR at seq {index.previous.seq}")
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
        previous, self.previous = self.previous, record
        if _is_policy_exception(previous):
            error = previous.payload
            if not (
                etype == "DECISION" and value.fallback and value.fallback_reason == error.message
                and (value.participant_id, value.decision_index) == (error.participant_id, error.decision_index)
            ):
                raise StructuralAuditError(f"{etype} at seq {record.seq} does not answer the ERROR before it")
        elif etype == "DECISION" and value.fallback:
            raise StructuralAuditError(f"DECISION at seq {record.seq} is a fallback that answers no ERROR")
        if etype in ("DATA_INGESTED", "OUTCOME_OBSERVED") and value.device_ts != record.device_ts:
            raise StructuralAuditError(f"{etype} at seq {record.seq} has two device_ts")
        if etype == "DATA_INGESTED":
            snapshot = self.snapshots.get((value.participant_id, _window(header.config.schedule, value.device_ts)))
            if value.superseded_snapshot_seq != (None if snapshot is None else snapshot[0].seq):
                raise StructuralAuditError(f"DATA_INGESTED at seq {record.seq} names another superseded snapshot")
        if etype in ("FEATURE_SNAPSHOT", "DECISION"):
            pid, idx = value.participant_id, value.decision_index
            key, last = (pid, idx), self.last_decided.get(pid, -1)
            if idx <= last:
                if idx == last or (key in self.decisions and key not in self.consumed):
                    raise StructuralAuditError(
                        f"DECISION at seq {record.seq} repeats {key}" if etype == "DECISION"
                        else f"FEATURE_SNAPSHOT at seq {record.seq} follows the DECISION of {key}"
                    )
                raise StructuralAuditError(
                    f"{etype} at seq {record.seq} names {key}, but {pid!r} has decided point {last} already"
                )
        if etype == "FEATURE_SNAPSHOT":
            pid, idx = value.participant_id, value.decision_index
            if idx < self.last_snapshot.get(pid, idx):
                raise StructuralAuditError(f"FEATURE_SNAPSHOT at seq {record.seq} comes after a later point's")
            methods = tuple("locf" if tag == "imputed" else None for tag in value.provenance)
            if value.imputation_methods != methods:
                raise StructuralAuditError(f"FEATURE_SNAPSHOT at seq {record.seq} has imputation methods {methods}")
            if value.assembled_ts != header.config.schedule.due_ts(idx):
                raise StructuralAuditError(f"FEATURE_SNAPSHOT at seq {record.seq} was not assembled when due")
            self.last_snapshot[pid] = idx
            self.snapshots[(pid, idx)] = (Stamp.of(record), value)
        elif etype == "DECISION":
            key = (value.participant_id, value.decision_index)
            self.last_decided[value.participant_id] = value.decision_index
            self.decisions[key] = (Stamp.of(record), value)
        elif etype == "OUTCOME_OBSERVED":
            self.outcomes[record.seq] = value
            self.pending.setdefault(value.participant_id, []).append(record.seq)
        elif etype == "MODEL_UPDATE":
            rows = self.batch(value.participant_id, value.batch_seqs, record.seq)
            pending = self.pending.get(value.participant_id, [])
            self.pending[value.participant_id] = [s for s in pending if s not in value.batch_seqs]
            self.consumed.update((value.participant_id, self.outcomes[s].decision_index) for s in value.batch_seqs)
            self.updates.append((Stamp.of(record), value, rows))
        elif etype == "ERROR":
            if value.kind not in ("policy_exception", "update_failure"):
                raise StructuralAuditError(f"ERROR at seq {record.seq} has kind {value.kind!r}")
            schedule, idx = header.config.schedule, value.decision_index
            if idx is not None and not 0 <= idx < schedule.trial_days * len(schedule.decision_times):
                raise StructuralAuditError(f"ERROR at seq {record.seq} names decision {idx}")
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
            elif outcome is None or outcome_seq not in self.pending[outcome.participant_id]:
                problem = f"references seq {outcome_seq}, which is not a pending OUTCOME_OBSERVED event"
            elif outcome.participant_id != participant_id:
                problem = f"has outcome seq {outcome_seq} of another participant"
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


def _window(schedule, ts: int) -> int:
    """The point j whose window ``(due_ts(j - 1), due_ts(j)]`` holds ``ts``:
    -1 before the trial starts, the number of points after the last due time."""
    if ts < schedule.trial_start_ts:
        return -1
    total = schedule.trial_days * len(schedule.decision_times)
    return next((j for j in range(total) if ts <= schedule.due_ts(j)), total)


def _is_policy_exception(record) -> bool:
    return record is not None and record.event_type == "ERROR" and record.payload.kind == "policy_exception"


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
    config = index.header.config.model
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

    initial = policy.init_state(config)
    pids = [*index.header.config.participants, *(pid for pid, _ in index.snapshots)]
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
            failed = reason = None
            injection = index.header.config.injection
            gate = SplitMix64(derive_seed(deployment_seed, "inject-policy", pid, idx)).next_float()
            if injection.policy_exception_prob > 0.0 and gate < injection.policy_exception_prob:
                failed, reason = "InjectedFailure", "InjectedFailure: injected policy exception"
            else:
                try:
                    pi_raw, pi = logic_by_version[version_id].action_probability(states[pid], snap[1], config)
                except Exception as exc:
                    failed, reason = type(exc).__name__, f"{type(exc).__name__}: {exc}"
            if failed is not None and not value.fallback:
                decisions.record(seq, "pi_raw", encode_float(value.pi_raw), f"error:{failed}")
                continue
            if value.fallback_reason != reason:
                decisions.record(seq, "fallback_reason", value.fallback_reason, reason)
            if failed is not None:
                pi_raw = pi = 0.5
            if value.fallback:
                expected = (("pi", value.pi, pi), ("pi_raw", value.pi_raw, pi_raw))
            else:
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
        except Exception as exc:
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
    k = header.config.schedule.points_per_day
    trial_days = header.config.schedule.trial_days
    trial_start = header.config.schedule.trial_start_ts
    n_participants = len(header.config.participants)

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
