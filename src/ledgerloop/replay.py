"""Replay audit: reconstruct model states from a ledger and verify that every
logged decision and update is bit-exactly reproducible.

Replay is one pass over a ledger's records. It folds each record into the
shared :class:`ledgerloop.events.StreamIndex`, the same fold the runtime
keeps while it writes, and right after the fold applies a decision or an
update it re-runs the runtime's own step for it
(:func:`ledgerloop.events.decision_step`, :func:`~ledgerloop.events.update_step`)
from its participant's current posterior and compares. It keeps nothing but
the index, each participant's current posterior and the diffs. Comparison
is bit-exact, never tolerance-based: floats travel as IEEE-754 bit
patterns, and each segment is replayed with the logic that wrote it, so an
honest ledger replays to the last bit. The auditor only ever reads; it
cannot append to the ledger under audit.

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

A logic is only its numerics, ``(delta, v)`` and the updated posterior:
every segment starts from the one prior, ``policy.init_state``, and the
checks, update rows, clip, seed derivation, coin and state encoding around
those numerics are :mod:`ledgerloop.policy`'s for every logic.

A fingerprint no registered logic has is an audit error, and so is a logic
given for a version whose recorded fingerprint is not that logic's.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping

from . import policy
from .errors import AuditError
from .events import ErrorInfo, StreamIndex, decision_step, update_step
from .ledger import EventEnvelope, encode_float, report_bytes
from .policy import FeatureSnapshot, ModelConfig, PosteriorState


@dataclass(frozen=True)
class PolicyLogic:
    """One algorithm version's policy numerics: its action probability and
    its posterior update.

    Replay applies, segment by segment, the logic registered for the version
    that was active when each event was written. A logic is only its
    numerics: the prior, the dimension checks, the update rows, the limit
    when the variance is not positive, the clip, the seed derivation, the
    coin and the state encoding are the same for every logic, so they are
    :mod:`ledgerloop.policy`'s.
    """

    name: str
    fingerprint: str
    action_probability: Callable
    update_posterior: Callable


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
    state = policy.init_state(config)
    for step in range(len(_KAT_BATCHES) + 1):
        if step:
            rows = [(snapshots[i], action, reward) for i, action, reward in _KAT_BATCHES[step - 1]]
            state = logic.update_posterior(state, rows, config, last_update_seq=10 * step)
        digest.update(policy.canonical_serialize(state))
        for i, snapshot in enumerate(snapshots):
            pi_raw, pi = logic.action_probability(state, snapshot, config)
            seed = policy.derive_decision_seed(0x5EED, f"p{i}", step)
            digest.update(struct.pack(">ddQB", pi_raw, pi, seed, policy.decide(pi, seed)))
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
        action_probability=policy_v1.action_probability,
        update_posterior=policy_v1.update_posterior,
    )


def _v2() -> PolicyLogic:
    # The functions are looked up when the logic is built, not when this
    # module is imported, so a wrapper installed on ``policy`` sees the calls.
    logic = PolicyLogic(
        name="conjugate-linear-v2",
        fingerprint=V2_FINGERPRINT,
        action_probability=policy.action_probability,
        update_posterior=policy.update_posterior,
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


@dataclass(frozen=True)
class FieldDiff:
    seq: int
    path: str
    logged: str | None
    recomputed: str | None


@dataclass
class DivergenceReport:
    status: str = "exact"
    first_divergent_seq: int | None = None
    field_diffs: list[FieldDiff] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def record(self, seq: int, path: str, logged: str | None, recomputed: str | None) -> None:
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


@dataclass
class Reconstruction:
    """The stream index of a ledger after its last record, each
    participant's final posterior, and the diffs the pass found in its
    decisions and updates."""

    index: StreamIndex
    states: dict[str, PosteriorState]
    decisions: DivergenceReport
    updates: DivergenceReport

    def report(self) -> DivergenceReport:
        """The full verdict: the decision and update reports, merged in that
        order, with the index's counts."""
        merged = merge_reports(verify_decisions(self), verify_updates(self))
        merged.counts["events_total"] = self.index.size
        merged.counts["snapshots_seen"] = self.index.snapshots_seen
        merged.counts["outcomes_seen"] = self.index.outcomes_seen
        return merged


_bits = struct.Struct(">d").pack  # a float's bits, which encode_float shows as hex


def _failed(reason: str) -> str:
    """``error:<Type>`` of a step's ``Type: message`` reason."""
    return "error:" + reason.partition(":")[0]


def reconstruct_states(
    records: Iterable[EventEnvelope],
    logic_by_version: Mapping[str, PolicyLogic] | None = None,
    versions: Collection[str] | None = None,
) -> Reconstruction:
    """Fold ``records`` into a :class:`StreamIndex` one at a time and, right
    after the fold applies each decision and update, re-run the runtime's
    step for it and compare, holding one current posterior per participant,
    so the records are read once.

    A version's logic is the one ``logic_by_version`` gives or, by default,
    the registered logic its VERSION_CHANGE's fingerprint names (for the
    ``versions`` only, when given). Each step runs with the logic of the
    version active at its seq, from the prior (``policy.init_state`` of the
    HEADER's model), which holds from the first version activated.

    - A decision is compared with :func:`~ledgerloop.events.decision_step`
      at the state current at its seq: its version stamp, its seed, whether
      it is a fallback and why (``fallback_reason``), and ``(pi_raw, pi)``.
      A computed decision that the step makes a fallback, the logic or the
      injection gate failing on it, is recorded as ``error:<type>`` on
      ``pi_raw`` with no more checks. The action must follow from the logged
      ``(pi, seed)``.
    - An update's pre-state hash must be its participant's current state's,
      its post-state the one :func:`~ledgerloop.events.update_step` gives,
      byte for byte, and its post-state hash the digest of the logged
      post-state. One the step fails is recorded as ``error:<type>`` and
      the participant stays at its pre-state, as the runtime's does after a
      failed update. An ``update_failure`` ERROR is an input: a logic may
      refuse an update and take the same outcomes later.

    Diffs go to one report for decisions and one for updates, each in seq
    order; nothing else derived is kept. Raises AuditError for a version
    activated with no logic or with another logic's fingerprint;
    StructuralAuditError for what the fold refuses, so a decision always
    has its snapshot and an active version here.
    """
    index = StreamIndex()
    logics = dict(logic_by_version or {})
    states: dict[str, PosteriorState] = {}
    logic = initial = None  # the active version's logic; the prior, once a version is active
    decisions, updates = DivergenceReport(), DivergenceReport()
    for record in records:
        rows = index.apply(record)
        seq, etype, value = record.seq, record.event_type, record.payload
        if etype == "DECISION":
            pid, idx = value.participant_id, value.decision_index
            version_id = index.versions[-1][1]
            if record.version_id != version_id or value.version_id != version_id:
                decisions.record(seq, "version_id", value.version_id, version_id)
            snapshot, state = index.participants[pid].snapshots[idx], states.get(pid, initial)
            pi_raw, pi, seed, action, reason = decision_step(index.header, logic, state, snapshot, pid, idx)
            if seed != value.seed:
                decisions.record(seq, "seed", str(value.seed), str(seed))
            if reason is not None and not value.fallback:
                decisions.record(seq, "pi_raw", encode_float(value.pi_raw), _failed(reason))
                continue
            if value.fallback_reason != reason:
                decisions.record(seq, "fallback_reason", value.fallback_reason, reason)
            pairs = (("pi_raw", value.pi_raw, pi_raw), ("pi", value.pi, pi))
            for path, logged, derived in pairs[::-1] if value.fallback else pairs:
                if _bits(logged) != _bits(derived):
                    decisions.record(seq, path, encode_float(logged), encode_float(derived))
            if seed != value.seed or _bits(pi) != _bits(value.pi):
                action = policy.decide(value.pi, value.seed)  # what the logged pi and seed give
            if action != value.action:
                decisions.record(seq, "action", str(value.action), str(action))
        elif etype == "MODEL_UPDATE":
            pid = value.participant_id
            state = states.get(pid, initial)
            if value.pre_state_hash != state.state_hash:
                updates.record(seq, "pre_state_hash", value.pre_state_hash.hex(), state.state_hash.hex())
            derived, states[pid] = update_step(logic, index.header.config.model, state, pid, value.batch_seqs, rows)
            if type(derived) is ErrorInfo:
                updates.record(seq, "post_state", value.post_state.hex(), _failed(derived.message))
            elif value.post_state != derived.post_state:
                updates.record(seq, "post_state", value.post_state.hex(), derived.post_state.hex())
            logged_digest = hashlib.sha256(value.post_state).digest()
            if value.post_state_hash != logged_digest:
                updates.record(seq, "post_state_hash", value.post_state_hash.hex(), logged_digest.hex())
        elif etype == "VERSION_CHANGE":
            version_id = value.version_id
            if version_id not in logics:
                if logic_by_version is not None or (versions is not None and version_id not in versions):
                    raise AuditError(
                        f"version {version_id!r} at seq {index.stamps.get(version_id, seq)} has no registered logic"
                    )
                try:
                    logics[version_id] = logic_for(value.fingerprint)
                except AuditError as exc:
                    raise AuditError(f"version {version_id!r}: {exc}") from None
            logic = logics[version_id]
            if logic.fingerprint != value.fingerprint:
                raise AuditError(
                    f"version {version_id!r} at seq {seq} records fingerprint {value.fingerprint}, "
                    f"not that of {logic.name} ({logic.fingerprint})"
                )
            if initial is None:
                initial = policy.init_state(index.header.config.model)
    index.complete()
    if initial is not None:
        for pid in index.header.config.participants:  # the fold refuses a record of any other
            states.setdefault(pid, initial)
    decisions.counts["decisions_checked"] = index.totals.decisions
    updates.counts["updates_checked"] = index.totals.updates
    return Reconstruction(index, states, decisions, updates)


def verify_decisions(recon: Reconstruction) -> DivergenceReport:
    """The pass's report on every logged decision (see :func:`reconstruct_states`)."""
    return recon.decisions


def verify_updates(recon: Reconstruction) -> DivergenceReport:
    """The pass's report on every logged update (see :func:`reconstruct_states`)."""
    return recon.updates


def replay_verify(
    records: Iterable[EventEnvelope],
    logic_by_version: Mapping[str, PolicyLogic] | None = None,
    versions: Collection[str] | None = None,
) -> DivergenceReport:
    """Full audit of a ledger's records: :meth:`Reconstruction.report` of
    their :func:`reconstruct_states`.

    Raises AuditError/StructuralAuditError for attribution and structure
    problems; returns a DivergenceReport (status exact or diverged) otherwise.
    """
    return reconstruct_states(records, logic_by_version, versions).report()
