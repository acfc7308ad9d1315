"""Replay audit: reconstruct model states from a ledger and verify that every
logged decision and update is bit-exactly reproducible.

Replay reads the ledger through the shared
:class:`ledgerloop.events.StreamIndex`, the same fold the runtime keeps while
it writes, and adds only the posterior recompute. Comparison is bit-exact,
never tolerance-based: floats travel as IEEE-754 bit patterns, and each
segment is replayed with the logic that wrote it, so an honest ledger
replays to the last bit. The auditor only ever reads; it cannot append to
the ledger under audit.

Which logic replays a segment is decided by the fingerprint its
VERSION_CHANGE records, looked up in :data:`LOGICS`:

- ``conjugate-linear-v2`` (``ledgerloop.policy``, the default) has as its
  fingerprint the SHA-256 of its outputs on pinned inputs
  (:func:`known_answers`). Before a v2 logic is used, to write or to audit,
  those answers are recomputed on this host; a host that gives other bits
  is refused instead of producing a ledger or verdict nobody can reproduce.
- ``conjugate-linear-v1`` (``ledgerloop.policy_v1``, numpy and scipy) keeps
  the digest of its function names that ledgers written before v2 record.
  It is imported only when a ledger names it, and needs the ``v1`` extra.

A fingerprint no registered logic has is an audit error, and so is a logic
given for a version whose recorded fingerprint is not that logic's.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Collection, Mapping

from . import policy
from .errors import AuditError, LedgerLoopError, StructuralAuditError
from .events import StreamIndex
from .ledger import encode_float, report_bytes
from .policy import FeatureSnapshot, ModelConfig, PosteriorState


@dataclass(frozen=True)
class PolicyLogic:
    """The policy operation set of one algorithm version.

    Replay applies, segment by segment, the logic registered for the version
    that was active when each event was written.
    """

    name: str
    fingerprint: str
    init_state: Callable[[ModelConfig], PosteriorState]
    action_probability: Callable
    decide: Callable[[float, int], int]
    derive_decision_seed: Callable[[int, str, int], int]
    update_posterior: Callable
    serialize: Callable[[PosteriorState], bytes]


# Pinned inputs of the known-answer fingerprint: a 3 + 3 model, four
# snapshots as (baseline, treatment), and two update batches of
# (snapshot, action, reward).
_KAT_CONFIG = ModelConfig(
    baseline_dim=3,
    treatment_dim=3,
    noise_variance=0.7,
    prior_mean=(0.1, -0.2, 0.3, 0.05, -0.4, 0.25),
    prior_precision_scale=1.3,
    clip_min=0.1,
    clip_max=0.9,
    version_id="known-answers",
)
_KAT_FEATURES = (
    ((1.0, 0.5, 0.0), (1.0, -0.25, 0.75)),
    ((1.0, -1.5, 1.0), (1.0, 0.125, -0.5)),
    ((1.0, 2.0, 0.5), (1.0, 1.75, 0.0)),
    ((1.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
)
_KAT_BATCHES = (
    ((0, 1, 0.9), (1, 0, -0.35), (2, 1, 1.6)),
    ((3, 1, 0.2), (1, 1, -1.1), (0, 0, 0.45), (2, 1, 2.5)),
)


def known_answers(logic: PolicyLogic) -> str:
    """SHA-256 hex of ``logic``'s outputs on the pinned inputs: the encoded
    state after init and after each update batch and, at each of those
    states, ``(pi_raw, pi, seed, action)`` for every snapshot."""
    config = _KAT_CONFIG
    n = config.dim
    snapshots = [
        FeatureSnapshot(g, h, ("observed",) * n, (None,) * n, (None,) * n, 0)
        for g, h in _KAT_FEATURES
    ]
    digest = hashlib.sha256()
    state = logic.init_state(config)
    for step in range(len(_KAT_BATCHES) + 1):
        if step:
            rows = [(snapshots[i], action, reward) for i, action, reward in _KAT_BATCHES[step - 1]]
            state = logic.update_posterior(state, rows, config, last_update_seq=10 * step)
        digest.update(logic.serialize(state))
        for i, snapshot in enumerate(snapshots):
            pi_raw, pi = logic.action_probability(state, snapshot, config)
            seed = logic.derive_decision_seed(0x5EED, f"p{i}", step)
            digest.update(struct.pack(">ddQB", pi_raw, pi, seed, logic.decide(pi, seed)))
    return digest.hexdigest()


V1_FINGERPRINT = "afa33f8283aec3d949b023d16d2d632445fd1f045bd2a1c7251f91f28dab2cd3"
V2_FINGERPRINT = "5dae03d57f39db882224c3ce32c7b0711d57388e5ee57c31b2687fda8e8ecbe0"


def _v1() -> PolicyLogic:
    try:
        from . import policy_v1
    except ImportError as exc:
        raise AuditError(
            "this ledger was written by conjugate-linear-v1, which needs the optional "
            f"`v1` extra (numpy and scipy): pip install 'ledgerloop[v1]' ({exc})"
        ) from None
    return PolicyLogic(
        name="conjugate-linear-v1",
        fingerprint=V1_FINGERPRINT,
        init_state=policy_v1.init_state,
        action_probability=policy_v1.action_probability,
        decide=policy.decide,
        derive_decision_seed=policy.derive_decision_seed,
        update_posterior=policy_v1.update_posterior,
        serialize=policy.canonical_serialize,
    )


def _v2() -> PolicyLogic:
    # The functions are looked up when the logic is built, not when this
    # module is imported, so a wrapper installed on ``policy`` sees the calls.
    logic = PolicyLogic(
        name="conjugate-linear-v2",
        fingerprint=V2_FINGERPRINT,
        init_state=policy.init_state,
        action_probability=policy.action_probability,
        decide=policy.decide,
        derive_decision_seed=policy.derive_decision_seed,
        update_posterior=policy.update_posterior,
        serialize=policy.canonical_serialize,
    )
    answers = known_answers(logic)
    if answers != V2_FINGERPRINT:
        raise AuditError(
            f"conjugate-linear-v2 gives the known answers {answers} on this host, not "
            f"{V2_FINGERPRINT}; its bits here would not replay elsewhere"
        )
    return logic


# Registered logics by fingerprint: each entry builds its logic when asked.
LOGICS: dict[str, Callable[[], PolicyLogic]] = {V1_FINGERPRINT: _v1, V2_FINGERPRINT: _v2}


def logic_for(fingerprint: str) -> PolicyLogic:
    """The registered logic with ``fingerprint``; AuditError if there is none,
    or if it cannot run or be trusted on this host."""
    build = LOGICS.get(fingerprint)
    if build is None:
        raise AuditError(f"fingerprint {fingerprint!r} names no registered logic")
    return build()


def default_logic() -> PolicyLogic:
    """The logic new ledgers are written with: ``conjugate-linear-v2``."""
    return logic_for(V2_FINGERPRINT)


def registered_logics(
    index: StreamIndex, versions: Collection[str] | None = None
) -> dict[str, PolicyLogic]:
    """The logic of each version the ledger activates (of ``versions`` only,
    when given), chosen by the fingerprint its VERSION_CHANGE records."""
    built: dict[str, PolicyLogic] = {}
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
        verdict = {
            "status": self.status,
            "first_divergent_seq": self.first_divergent_seq,
            "counts": self.counts,
        }
        return report_bytes("divergence", [verdict, *self.field_diffs])


def merge_reports(*reports: DivergenceReport) -> DivergenceReport:
    merged = DivergenceReport()
    for report in reports:
        for diff in report.field_diffs:
            merged.record(diff.seq, diff.path, diff.logged, diff.recomputed)
        for key, value in report.counts.items():
            merged.counts[key] = merged.counts.get(key, 0) + value
    return merged


_AT_SEQ = itemgetter(0)


@dataclass
class Reconstruction:
    """The stream index of a ledger plus what one walk over its decisions
    and updates recomputed from it."""

    config: ModelConfig
    logic_by_version: Mapping[str, PolicyLogic]
    index: StreamIndex
    states: dict[str, PosteriorState]  # each participant's final posterior
    # (seq, UpdateInfo, recomputed post-state bytes or "error:<type>", pre_state_hash)
    updates: list
    # seq of each non-fallback decision with a prior snapshot -> its
    # recomputed (pi_raw, pi), or "error:<type>"
    probabilities: dict[int, tuple[float, float] | str]


def reconstruct_states(
    index: StreamIndex, logic_by_version: Mapping[str, PolicyLogic] | None = None
) -> Reconstruction:
    """Walk the indexed decisions and updates together in seq order, holding
    one current posterior per participant, through per-version policy logic,
    by default the logic each version's recorded fingerprint names
    (:func:`registered_logics`).

    Each update is recomputed from its participant's current state; one the
    logic refuses is recorded as ``error:<type>`` and the participant stays
    at its pre-state, as the runtime's does after a failed update. Each
    non-fallback decision's ``(pi_raw, pi)`` is recomputed from the state
    current at its seq.

    Raises AuditError when any event carries a version with no registered
    logic or when a version's logic does not have the fingerprint it
    recorded. Structural problems (bad batch references, a missing header,
    double consumption) were already raised by the fold that built the index;
    a decision with no prior snapshot is left for :func:`verify_decisions`
    to raise.
    """
    config = index.header.model
    if logic_by_version is None:
        logic_by_version = registered_logics(index)
    # Every version the ledger names, envelope stamps before a VERSION_CHANGE
    # payload at the same seq; the first one without logic is the error.
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

    initial = logic_by_version[next(iter(index.stamped))].init_state(config)  # the HEADER's
    pids = [*index.header.participants, *(pid for pid, _ in index.snapshots)]
    states = dict.fromkeys(pids, initial)
    updates, probabilities = [], {}
    first_version_seq = index.versions[0][0] if index.versions else math.inf
    # Stamps order by seq, which no two records share.
    walk = heapq.merge(
        ((stamp, decision, None) for stamp, decision in index.decisions.values()),
        index.updates,
        key=_AT_SEQ,
    )
    for stamp, value, rows in walk:
        seq, pid = stamp.seq, value.participant_id
        if rows is None:  # a decision
            snap = index.snapshots.get((pid, value.decision_index))
            if value.fallback or snap is None or snap[0].seq >= seq or seq < first_version_seq:
                continue  # nothing to recompute, or verify_decisions raises
            logic = logic_by_version[index.version_at(seq)]
            try:
                probabilities[seq] = logic.action_probability(states[pid], snap[1], config)
            except LedgerLoopError as exc:
                probabilities[seq] = f"error:{type(exc).__name__}"
            continue
        logic = logic_by_version[stamp.version_id]
        pre_state = states[pid]
        try:
            new_state = logic.update_posterior(
                pre_state, rows, config, last_update_seq=max(value.batch_seqs)
            )
        except LedgerLoopError as exc:
            recomputed = f"error:{type(exc).__name__}"
        else:
            recomputed = logic.serialize(new_state)
            states[pid] = new_state
        updates.append((seq, value, recomputed, pre_state.state_hash))
    return Reconstruction(config, logic_by_version, index, states, updates, probabilities)


def verify_decisions(recon: Reconstruction) -> DivergenceReport:
    """Check every logged decision against what the walk recomputed.

    Normal decisions must reproduce pi_raw, pi (bit-exact via float hex) and
    the action from (pi, logged seed); fallback decisions are checked against
    the uniform rule (pi = 1/2, same coin). Seeds and the version stamp are
    re-derived and compared as well.
    """
    report = DivergenceReport()
    checked = 0
    for stamp, decision in recon.index.decisions.values():
        checked += 1
        seq, envelope_version = stamp.seq, stamp.version_id
        pid, idx = decision.participant_id, decision.decision_index
        snap_entry = recon.index.snapshots.get((pid, idx))
        if snap_entry is None or snap_entry[0].seq >= seq:
            raise StructuralAuditError(
                f"DECISION at seq {seq} has no prior FEATURE_SNAPSHOT for "
                f"({pid}, {idx})"
            )
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
            recomputed = recon.probabilities[seq]
            if isinstance(recomputed, str):  # the logic refused
                report.record(seq, "pi_raw", encode_float(decision.pi_raw), recomputed)
                continue
            pi_raw, pi = recomputed
            if encode_float(pi_raw) != encode_float(decision.pi_raw):
                report.record(seq, "pi_raw", encode_float(decision.pi_raw), encode_float(pi_raw))
            if encode_float(pi) != encode_float(decision.pi):
                report.record(seq, "pi", encode_float(decision.pi), encode_float(pi))

        action = logic.decide(decision.pi, decision.seed)
        if action != decision.action:
            report.record(seq, "action", str(decision.action), str(action))
    report.counts["decisions_checked"] = checked
    return report


def verify_updates(recon: Reconstruction) -> DivergenceReport:
    """Compare every logged post-state against the recomputed fold, byte for
    byte, and check hash self-consistency of the update payloads."""
    report = DivergenceReport()
    checked = 0
    for seq, info, recomputed, pre_hash in recon.updates:
        checked += 1
        if info.pre_state_hash != pre_hash:
            report.record(seq, "pre_state_hash", info.pre_state_hash.hex(), pre_hash.hex())
        if isinstance(recomputed, str):  # the logic refused to recompute it
            report.record(seq, "post_state", info.post_state.hex(), recomputed)
        elif info.post_state != recomputed:
            report.record(seq, "post_state", info.post_state.hex(), recomputed.hex())
        logged_digest = hashlib.sha256(info.post_state).digest()
        if info.post_state_hash != logged_digest:
            report.record(
                seq, "post_state_hash", info.post_state_hash.hex(), logged_digest.hex()
            )
    report.counts["updates_checked"] = checked
    return report


def replay_verify(
    index: StreamIndex, logic_by_version: Mapping[str, PolicyLogic] | None = None
) -> DivergenceReport:
    """Full audit: reconstruct, then verify decisions and updates.

    Raises AuditError/StructuralAuditError for attribution and structure
    problems; returns a DivergenceReport (status exact or diverged) otherwise.
    """
    recon = reconstruct_states(index, logic_by_version)
    decisions_report = verify_decisions(recon)
    updates_report = verify_updates(recon)
    merged = merge_reports(decisions_report, updates_report)
    merged.counts["events_total"] = recon.index.size
    merged.counts["snapshots_seen"] = len(recon.index.snapshots)
    merged.counts["outcomes_seen"] = len(recon.index.outcomes)
    return merged
