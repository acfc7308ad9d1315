"""Replay audit: reconstruct model states from a ledger and verify that every
logged decision and update is bit-exactly reproducible.

Replay reads the ledger through the shared
:class:`ledgerloop.events.StreamIndex`, the same fold the runtime keeps while
it writes, and adds only the posterior recompute. Comparison is bit-exact,
never tolerance-based: floats travel as IEEE-754 bit patterns, update
summation order is fixed, and Cholesky is the single solve algorithm, so an
honest ledger replays to the last bit. The auditor only ever
reads; it cannot append to the ledger under audit.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping

from . import policy
from .config import model_config_from_canonical
from .errors import AuditError, LedgerLoopError, StructuralAuditError
from .events import StreamIndex, stream_index
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
    """The stream index of a ledger plus the posterior states recomputed
    from it."""

    config: ModelConfig
    logic_by_version: Mapping[str, PolicyLogic]
    index: StreamIndex
    # per participant: [(seq_effective_from, state)] in seq order
    states: dict[str, list[tuple[int, PosteriorState]]]
    updates: list  # (seq, UpdateInfo, recomputed_bytes, pre_state_hash)

    def state_before(self, participant_id: str, seq: int) -> PosteriorState:
        timeline = self.states.get(participant_id)
        if not timeline:
            raise StructuralAuditError(f"unknown participant {participant_id!r}")
        i = bisect_left(timeline, seq, key=_AT_SEQ)
        return timeline[max(i - 1, 0)][1]


def reconstruct_states(
    source: Ledger | StreamIndex, logic_by_version: Mapping[str, PolicyLogic] | None = None
) -> Reconstruction:
    """Fold the ledger's update events through per-version policy logic.

    Precondition: the ledger's chain verifies, as every Ledger's does (see
    :func:`ledgerloop.monitor.compute_metrics`). Raises AuditError when any
    event carries a version with no registered logic, StructuralAuditError
    when the ledger's structure itself is inconsistent (bad batch references,
    missing header, double consumption).
    """
    index = stream_index(source)
    config = model_config_from_canonical(index.header.config["model"])
    if logic_by_version is None:
        logic_by_version = {config.version_id: default_logic()}
    # Every version the ledger names, envelope stamps before a VERSION_CHANGE
    # payload at the same seq; the first one without logic is the error.
    named = [(seq, version_id) for version_id, seq in index.stamped.items()] + index.versions
    for seq, version_id in sorted(named, key=_AT_SEQ):
        if version_id not in logic_by_version:
            raise AuditError(f"version {version_id!r} at seq {seq} has no registered logic")

    init_state = logic_by_version[next(iter(index.stamped))].init_state  # the HEADER's
    pids = [*index.header.config.get("participants", []), *(pid for pid, _ in index.snapshots)]
    states = {pid: [(0, init_state(config))] for pid in dict.fromkeys(pids)}
    recon = Reconstruction(
        config=config,
        logic_by_version=logic_by_version,
        index=index,
        states=states,
        updates=[],
    )
    for record, info, rows in index.updates:
        logic = logic_by_version[record.version_id]
        pre_state = recon.state_before(info.participant_id, record.seq)
        new_state = logic.update_posterior(
            pre_state, rows, config, last_update_seq=max(info.batch_seqs)
        )
        recon.updates.append(
            (record.seq, info, logic.serialize(new_state), pre_state.state_hash)
        )
        states[info.participant_id].append((record.seq, new_state))
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
    for record, decision in recon.index.decisions.values():
        checked += 1
        seq, envelope_version = record.seq, record.version_id
        pid, idx = decision.participant_id, decision.decision_index
        snap_entry = recon.index.snapshots.get((pid, idx))
        if snap_entry is None or snap_entry[0].seq >= seq:
            raise StructuralAuditError(
                f"DECISION at seq {seq} has no prior FEATURE_SNAPSHOT for "
                f"({pid}, {idx})"
            )
        _, snapshot = snap_entry
        expected_version = recon.index.version_at(seq)
        logic = recon.logic_by_version[expected_version]
        if envelope_version != expected_version or decision.version_id != expected_version:
            report.record(seq, "version_id", decision.version_id, expected_version)

        expected_seed = logic.derive_decision_seed(recon.index.header.deployment_seed, pid, idx)
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
    for seq, info, recomputed_bytes, pre_hash in recon.updates:
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
    source: Ledger | StreamIndex, logic_by_version: Mapping[str, PolicyLogic] | None = None
) -> DivergenceReport:
    """Full audit: reconstruct, then verify decisions and updates.

    Raises AuditError/StructuralAuditError for attribution and structure
    problems; returns a DivergenceReport (status exact or diverged) otherwise.
    """
    recon = reconstruct_states(source, logic_by_version)
    decisions_report = verify_decisions(source, recon)
    updates_report = verify_updates(source, recon)
    merged = merge_reports(decisions_report, updates_report)
    merged.counts["events_total"] = recon.index.size
    merged.counts["snapshots_seen"] = len(recon.index.snapshots)
    merged.counts["outcomes_seen"] = len(recon.index.outcomes)
    return merged
