"""Replay audit: reconstruct model states from a ledger and verify that every
logged decision and update is bit-exactly reproducible.

Comparison is bit-exact, never tolerance-based: floats travel as IEEE-754 bit
patterns, update summation order is fixed, and Cholesky is the single solve
algorithm, so an honest ledger replays to the last bit. The auditor only ever
reads; it cannot append to the ledger under audit.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping

from . import events, policy
from .config import model_config_from_canonical
from .errors import AuditError, LedgerLoopError, StructuralAuditError
from .ledger import Ledger, canonical_json_bytes, encode_float
from .policy import ModelConfig, PosteriorState


@dataclass(frozen=True)
class PolicyLogic:
    """The policy operation set of one algorithm version.

    Replay applies, segment by segment, the logic registered for the version
    that was active when each event was written.
    """

    name: str
    init_state: Callable[[ModelConfig], PosteriorState]
    action_probability: Callable
    decide: Callable[[float, int], int]
    derive_decision_seed: Callable[[int, str, int], int]
    update_posterior: Callable
    serialize: Callable[[PosteriorState], bytes]

    @property
    def fingerprint(self) -> str:
        descriptor = "|".join(
            [
                self.name,
                self.init_state.__qualname__,
                self.action_probability.__qualname__,
                self.decide.__qualname__,
                self.derive_decision_seed.__qualname__,
                self.update_posterior.__qualname__,
            ]
        )
        return hashlib.sha256(descriptor.encode()).hexdigest()


def default_logic(name: str = "conjugate-linear-v1") -> PolicyLogic:
    return PolicyLogic(
        name=name,
        init_state=policy.init_state,
        action_probability=policy.action_probability,
        decide=policy.decide,
        derive_decision_seed=policy.derive_decision_seed,
        update_posterior=policy.update_posterior,
        serialize=policy.canonical_serialize,
    )


@dataclass(frozen=True)
class FieldDiff:
    seq: int
    path: str
    logged: str
    recomputed: str


@dataclass
class DivergenceReport:
    status: str = "exact"
    first_divergent_seq: int | None = None
    field_diffs: list[FieldDiff] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def record(self, seq: int, path: str, logged: str, recomputed: str) -> None:
        self.status = "diverged"
        if self.first_divergent_seq is None or seq < self.first_divergent_seq:
            self.first_divergent_seq = seq
        self.field_diffs.append(FieldDiff(seq, path, logged, recomputed))

    @property
    def exact(self) -> bool:
        return self.status == "exact"

    def to_bytes(self) -> bytes:
        lines = [b"# ledgerloop divergence report v1"]
        lines.append(
            canonical_json_bytes(
                {
                    "status": self.status,
                    "first_divergent_seq": self.first_divergent_seq,
                    "counts": self.counts,
                }
            )
        )
        for diff in self.field_diffs:
            lines.append(
                canonical_json_bytes(
                    {
                        "seq": diff.seq,
                        "path": diff.path,
                        "logged": diff.logged,
                        "recomputed": diff.recomputed,
                    }
                )
            )
        return b"\n".join(lines) + b"\n"


def merge_reports(*reports: DivergenceReport) -> DivergenceReport:
    merged = DivergenceReport()
    for report in reports:
        for diff in report.field_diffs:
            merged.record(diff.seq, diff.path, diff.logged, diff.recomputed)
        for key, value in report.counts.items():
            merged.counts[key] = merged.counts.get(key, 0) + value
    return merged


_AT_SEQ = itemgetter(0)  # timelines are (seq, value) lists in seq order


@dataclass
class Reconstruction:
    """Everything rebuilt from one ledger pass: indexes plus recomputed states."""

    config: ModelConfig
    deployment_seed: int
    version_timeline: list[tuple[int, str]]
    logic_by_version: Mapping[str, PolicyLogic]
    # per participant: [(seq_effective_from, state)] in seq order
    states: dict[str, list[tuple[int, PosteriorState]]]
    snapshots: dict[tuple[str, int], tuple[int, object]]
    decisions: list  # (seq, DecisionRecord, envelope_version)
    decision_by_key: dict  # (participant_id, decision_index) -> DecisionRecord
    outcomes: dict[int, events.OutcomeInfo]
    updates: list  # (seq, UpdateInfo, recomputed_bytes, pre_state_hash, envelope_version)

    def version_at(self, seq: int) -> str:
        i = bisect_right(self.version_timeline, seq, key=_AT_SEQ)
        if i == 0:
            raise StructuralAuditError(f"no version active at seq {seq}")
        return self.version_timeline[i - 1][1]

    def logic_at(self, seq: int) -> PolicyLogic:
        return self.logic_by_version[self.version_at(seq)]

    def state_before(self, participant_id: str, seq: int) -> PosteriorState:
        timeline = self.states.get(participant_id)
        if not timeline:
            raise StructuralAuditError(f"unknown participant {participant_id!r}")
        i = bisect_left(timeline, seq, key=_AT_SEQ)
        return timeline[max(i - 1, 0)][1]


def reconstruct_states(
    ledger: Ledger, logic_by_version: Mapping[str, PolicyLogic] | None = None
) -> Reconstruction:
    """Fold the ledger's update events through per-version policy logic.

    Precondition: the ledger's chain verifies, as every Ledger's does (see
    :func:`ledgerloop.monitor.compute_metrics`). Raises AuditError when any
    event carries a version with no registered logic, StructuralAuditError
    when the ledger's structure itself is inconsistent (bad batch references,
    missing header, double consumption).
    """
    records = ledger.records()
    if not records or records[0].event_type != "HEADER":
        raise StructuralAuditError("ledger does not start with a HEADER record")
    header = events.parse_header(records[0].payload)
    config = model_config_from_canonical(header.config["model"])
    participants = list(header.config.get("participants", []))
    if logic_by_version is None:
        logic_by_version = {config.version_id: default_logic()}

    def lookup_logic(version_id: str, seq: int) -> PolicyLogic:
        if version_id not in logic_by_version:
            raise AuditError(
                f"version {version_id!r} at seq {seq} has no registered logic"
            )
        return logic_by_version[version_id]

    initial_logic = lookup_logic(records[0].version_id, 0)
    recon = Reconstruction(
        config=config,
        deployment_seed=header.deployment_seed,
        version_timeline=[],
        logic_by_version=logic_by_version,
        states={pid: [(0, initial_logic.init_state(config))] for pid in participants},
        snapshots={},
        decisions=[],
        decision_by_key={},
        outcomes={},
        updates=[],
    )
    consumed: set[int] = set()

    for record in records:
        lookup_logic(record.version_id, record.seq)
        etype = record.event_type
        if etype == "VERSION_CHANGE":
            version_id = record.payload.get("version_id")
            lookup_logic(version_id, record.seq)
            recon.version_timeline.append((record.seq, version_id))
        elif etype == "FEATURE_SNAPSHOT":
            pid, idx, snapshot = events.parse_snapshot(record.payload)
            recon.snapshots[(pid, idx)] = (record.seq, snapshot)
            if pid not in recon.states:
                recon.states[pid] = [(0, initial_logic.init_state(config))]
        elif etype == "DECISION":
            decision = events.parse_decision(record.payload)
            recon.decisions.append((record.seq, decision, record.version_id))
            recon.decision_by_key[(decision.participant_id, decision.decision_index)] = decision
        elif etype == "OUTCOME_OBSERVED":
            recon.outcomes[record.seq] = events.parse_outcome(record.payload)
        elif etype == "MODEL_UPDATE":
            info = events.parse_update(record.payload)
            if any(a >= b for a, b in zip(info.batch_seqs, info.batch_seqs[1:])):
                raise StructuralAuditError(
                    f"MODEL_UPDATE at seq {record.seq} has non-increasing batch_seqs"
                )
            batch = []
            for outcome_seq in info.batch_seqs:
                if outcome_seq >= record.seq:
                    raise StructuralAuditError(
                        f"MODEL_UPDATE at seq {record.seq} references future seq {outcome_seq}"
                    )
                if outcome_seq in consumed:
                    raise StructuralAuditError(
                        f"outcome seq {outcome_seq} consumed twice (at seq {record.seq})"
                    )
                outcome = recon.outcomes.get(outcome_seq)
                if outcome is None:
                    raise StructuralAuditError(
                        f"MODEL_UPDATE at seq {record.seq} references seq {outcome_seq}, "
                        "which is not an OUTCOME_OBSERVED event"
                    )
                if outcome.participant_id != info.participant_id:
                    raise StructuralAuditError(
                        f"outcome seq {outcome_seq} belongs to another participant"
                    )
                snap = recon.snapshots.get((info.participant_id, outcome.decision_index))
                dec = recon.decision_by_key.get((info.participant_id, outcome.decision_index))
                if snap is None or dec is None:
                    raise StructuralAuditError(
                        f"outcome seq {outcome_seq} has no snapshot/decision for "
                        f"decision {outcome.decision_index}"
                    )
                batch.append((snap[1], dec.action, outcome.reward))
                consumed.add(outcome_seq)
            logic = lookup_logic(record.version_id, record.seq)
            pre_state = recon.state_before(info.participant_id, record.seq)
            new_state = logic.update_posterior(
                pre_state, batch, config, last_update_seq=max(info.batch_seqs)
            )
            recon.updates.append(
                (record.seq, info, logic.serialize(new_state), pre_state.state_hash, record.version_id)
            )
            recon.states.setdefault(info.participant_id, []).append((record.seq, new_state))
    return recon


def verify_decisions(ledger: Ledger, recon: Reconstruction) -> DivergenceReport:
    """Recompute every logged decision from reconstructed state + snapshot.

    Normal decisions must reproduce pi_raw, pi (bit-exact via float hex) and
    the action from (pi, logged seed); fallback decisions are checked against
    the uniform rule (pi = 1/2, same coin). Seeds and the version stamp are
    re-derived and compared as well.
    """
    report = DivergenceReport()
    checked = 0
    for seq, decision, envelope_version in recon.decisions:
        checked += 1
        pid, idx = decision.participant_id, decision.decision_index
        snap_entry = recon.snapshots.get((pid, idx))
        if snap_entry is None or snap_entry[0] >= seq:
            raise StructuralAuditError(
                f"DECISION at seq {seq} has no prior FEATURE_SNAPSHOT for "
                f"({pid}, {idx})"
            )
        _, snapshot = snap_entry
        logic = recon.logic_at(seq)

        expected_version = recon.version_at(seq)
        if envelope_version != expected_version or decision.version_id != expected_version:
            report.record(seq, "version_id", decision.version_id, expected_version)

        expected_seed = logic.derive_decision_seed(recon.deployment_seed, pid, idx)
        if expected_seed != decision.seed:
            report.record(seq, "seed", str(decision.seed), str(expected_seed))

        if decision.fallback:
            if encode_float(decision.pi) != encode_float(0.5):
                report.record(seq, "pi", encode_float(decision.pi), encode_float(0.5))
            if encode_float(decision.pi_raw) != encode_float(0.5):
                report.record(seq, "pi_raw", encode_float(decision.pi_raw), encode_float(0.5))
        else:
            state = recon.state_before(pid, seq)
            try:
                pi_raw, pi = logic.action_probability(state, snapshot, recon.config)
            except LedgerLoopError as exc:
                report.record(seq, "pi_raw", encode_float(decision.pi_raw), f"error:{type(exc).__name__}")
                continue
            if encode_float(pi_raw) != encode_float(decision.pi_raw):
                report.record(seq, "pi_raw", encode_float(decision.pi_raw), encode_float(pi_raw))
            if encode_float(pi) != encode_float(decision.pi):
                report.record(seq, "pi", encode_float(decision.pi), encode_float(pi))

        action = logic.decide(decision.pi, decision.seed)
        if action != decision.action:
            report.record(seq, "action", str(decision.action), str(action))
    report.counts["decisions_checked"] = checked
    return report


def verify_updates(ledger: Ledger, recon: Reconstruction) -> DivergenceReport:
    """Compare every logged post-state against the recomputed fold, byte for
    byte, and check hash self-consistency of the update payloads."""
    report = DivergenceReport()
    checked = 0
    for seq, info, recomputed_bytes, pre_hash, _version in recon.updates:
        checked += 1
        if info.pre_state_hash != pre_hash:
            report.record(seq, "pre_state_hash", info.pre_state_hash.hex(), pre_hash.hex())
        if info.post_state != recomputed_bytes:
            report.record(
                seq, "post_state", info.post_state.hex(), recomputed_bytes.hex()
            )
        logged_digest = hashlib.sha256(info.post_state).digest()
        if info.post_state_hash != logged_digest:
            report.record(
                seq, "post_state_hash", info.post_state_hash.hex(), logged_digest.hex()
            )
    report.counts["updates_checked"] = checked
    return report


def replay_verify(
    ledger: Ledger, logic_by_version: Mapping[str, PolicyLogic] | None = None
) -> DivergenceReport:
    """Full audit: reconstruct, then verify decisions and updates.

    Raises AuditError/StructuralAuditError for attribution and structure
    problems; returns a DivergenceReport (status exact or diverged) otherwise.
    """
    recon = reconstruct_states(ledger, logic_by_version)
    decisions_report = verify_decisions(ledger, recon)
    updates_report = verify_updates(ledger, recon)
    merged = merge_reports(decisions_report, updates_report)
    merged.counts["events_total"] = len(ledger)
    merged.counts["snapshots_seen"] = len(recon.snapshots)
    merged.counts["outcomes_seen"] = len(recon.outcomes)
    return merged
