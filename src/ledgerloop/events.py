"""Typed payload schemas for every ledger event, and the one index over them.

Builders turn domain values into canonical-ready dicts (floats hex-encoded,
digests as hex strings); parsers invert them bit-exactly. These are the only
places that know which payload fields are floats.

:class:`StreamIndex` is the one fold over ledger records. The runtime applies
each record it appends, together with the typed value it built the payload
from; replay and the monitor fold a ledger's records, parsing each payload
once. Both sides therefore index versions, snapshots, decisions and outcomes
with the same code.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable

from .errors import DecodeError, StructuralAuditError
from .ledger import FORMAT_VERSION, EventEnvelope, Ledger, decode_float, encode_float
from .policy import DecisionRecord, FeatureSnapshot


def _participant(payload: dict) -> str:
    participant_id = payload["participant_id"]
    if not isinstance(participant_id, str):
        raise TypeError(f"participant_id must be a string, got {participant_id!r}")
    return participant_id


# -- HEADER ------------------------------------------------------------------

def header_payload(
    stream_id: str,
    environment_profile: str,
    deployment_seed: int,
    config: dict,
    config_digest: str,
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "stream_id": stream_id,
        "environment_profile": environment_profile,
        "deployment_seed": deployment_seed,
        "config": config,
        "config_digest": config_digest,
    }


@dataclass(frozen=True)
class HeaderInfo:
    format_version: int
    stream_id: str
    environment_profile: str
    deployment_seed: int
    config: dict
    config_digest: str


def parse_header(payload: dict) -> HeaderInfo:
    try:
        return HeaderInfo(
            format_version=int(payload["format_version"]),
            stream_id=payload["stream_id"],
            environment_profile=payload["environment_profile"],
            deployment_seed=int(payload["deployment_seed"]),
            config=payload["config"],
            config_digest=payload["config_digest"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed HEADER payload: {exc}") from None


# -- DATA_INGESTED -------------------------------------------------------------

def data_ingested_payload(
    participant_id: str,
    feature: str,
    value: float,
    device_ts: int,
    superseded_snapshot_seq: int | None = None,
) -> dict:
    return {
        "participant_id": participant_id,
        "feature": feature,
        "value": encode_float(value),
        "device_ts": device_ts,
        "superseded_snapshot_seq": superseded_snapshot_seq,
    }


@dataclass(frozen=True)
class DatumInfo:
    participant_id: str
    feature: str
    value: float
    device_ts: int
    superseded_snapshot_seq: int | None


def parse_data_ingested(payload: dict) -> DatumInfo:
    try:
        return DatumInfo(
            participant_id=_participant(payload),
            feature=payload["feature"],
            value=decode_float(payload["value"]),
            device_ts=int(payload["device_ts"]),
            superseded_snapshot_seq=payload["superseded_snapshot_seq"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed DATA_INGESTED payload: {exc}") from None


# -- FEATURE_SNAPSHOT ----------------------------------------------------------

def snapshot_payload(participant_id: str, decision_index: int, snapshot: FeatureSnapshot) -> dict:
    return {
        "participant_id": participant_id,
        "decision_index": decision_index,
        "baseline": [encode_float(v) for v in snapshot.baseline],
        "treatment": [encode_float(v) for v in snapshot.treatment],
        "provenance": list(snapshot.provenance),
        "imputation_methods": list(snapshot.imputation_methods),
        "source_device_ts": list(snapshot.source_device_ts),
        "assembled_ts": snapshot.assembled_ts,
    }


def parse_snapshot(payload: dict) -> tuple[str, int, FeatureSnapshot]:
    try:
        snapshot = FeatureSnapshot(
            baseline=tuple(decode_float(v) for v in payload["baseline"]),
            treatment=tuple(decode_float(v) for v in payload["treatment"]),
            provenance=tuple(payload["provenance"]),
            imputation_methods=tuple(payload["imputation_methods"]),
            source_device_ts=tuple(payload["source_device_ts"]),
            assembled_ts=int(payload["assembled_ts"]),
        )
        return _participant(payload), int(payload["decision_index"]), snapshot
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed FEATURE_SNAPSHOT payload: {exc}") from None


# -- DECISION ------------------------------------------------------------------

def decision_payload(record: DecisionRecord) -> dict:
    return {
        "participant_id": record.participant_id,
        "decision_index": record.decision_index,
        "pi_raw": encode_float(record.pi_raw),
        "pi": encode_float(record.pi),
        "seed": record.seed,
        "action": record.action,
        "fallback": record.fallback,
        "fallback_reason": record.fallback_reason,
        "version_id": record.version_id,
    }


def parse_decision(payload: dict) -> DecisionRecord:
    try:
        return DecisionRecord(
            participant_id=_participant(payload),
            decision_index=int(payload["decision_index"]),
            pi_raw=decode_float(payload["pi_raw"]),
            pi=decode_float(payload["pi"]),
            seed=int(payload["seed"]),
            action=int(payload["action"]),
            fallback=bool(payload["fallback"]),
            fallback_reason=payload["fallback_reason"],
            version_id=payload["version_id"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed DECISION payload: {exc}") from None


# -- OUTCOME_OBSERVED ----------------------------------------------------------

def outcome_payload(participant_id: str, decision_index: int, reward: float, device_ts: int) -> dict:
    return {
        "participant_id": participant_id,
        "decision_index": decision_index,
        "reward": encode_float(reward),
        "device_ts": device_ts,
    }


@dataclass(frozen=True)
class OutcomeInfo:
    participant_id: str
    decision_index: int
    reward: float
    device_ts: int


def parse_outcome(payload: dict) -> OutcomeInfo:
    try:
        return OutcomeInfo(
            participant_id=_participant(payload),
            decision_index=int(payload["decision_index"]),
            reward=decode_float(payload["reward"]),
            device_ts=int(payload["device_ts"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed OUTCOME_OBSERVED payload: {exc}") from None


# -- MODEL_UPDATE --------------------------------------------------------------

def update_payload(
    participant_id: str,
    batch_seqs: list[int],
    pre_state_hash: bytes,
    post_state_hash: bytes,
    post_state: bytes,
) -> dict:
    if any(a >= b for a, b in zip(batch_seqs, batch_seqs[1:])):
        raise StructuralAuditError("batch_seqs must be strictly increasing")
    return {
        "participant_id": participant_id,
        "batch_seqs": list(batch_seqs),
        "pre_state_hash": pre_state_hash.hex(),
        "post_state_hash": post_state_hash.hex(),
        "post_state": post_state.hex(),
    }


@dataclass(frozen=True)
class UpdateInfo:
    participant_id: str
    batch_seqs: tuple[int, ...]
    pre_state_hash: bytes
    post_state_hash: bytes
    post_state: bytes


def parse_update(payload: dict) -> UpdateInfo:
    try:
        return UpdateInfo(
            participant_id=_participant(payload),
            batch_seqs=tuple(int(s) for s in payload["batch_seqs"]),
            pre_state_hash=bytes.fromhex(payload["pre_state_hash"]),
            post_state_hash=bytes.fromhex(payload["post_state_hash"]),
            post_state=bytes.fromhex(payload["post_state"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed MODEL_UPDATE payload: {exc}") from None


# -- VERSION_CHANGE --------------------------------------------------------------

def version_change_payload(
    version_id: str, fingerprint: str, previous_version_id: str | None
) -> dict:
    return {
        "version_id": version_id,
        "fingerprint": fingerprint,
        "previous_version_id": previous_version_id,
    }


def parse_version_change(payload: dict) -> tuple[str, str]:
    """``(version_id, fingerprint)`` of a VERSION_CHANGE payload."""
    try:
        version_id, fingerprint = payload["version_id"], payload["fingerprint"]
    except KeyError as exc:
        raise DecodeError(f"malformed VERSION_CHANGE payload: missing {exc}") from None
    if not (isinstance(version_id, str) and isinstance(fingerprint, str)):
        raise DecodeError("malformed VERSION_CHANGE payload: version_id and fingerprint must be strings")
    return version_id, fingerprint


# -- ERROR / ALERT ---------------------------------------------------------------

def error_payload(
    kind: str,
    message: str,
    participant_id: str | None = None,
    decision_index: int | None = None,
) -> dict:
    return {
        "kind": kind,
        "message": message,
        "participant_id": participant_id,
        "decision_index": decision_index,
    }


def alert_payload(
    metric: str,
    comparator: str,
    threshold: float,
    value: float,
    window: str,
    day: int | None,
    severity: str,
) -> dict:
    return {
        "metric": metric,
        "comparator": comparator,
        "threshold": encode_float(threshold),
        "value": encode_float(value),
        "window": window,
        "day": day,
        "severity": severity,
    }


# -- decoded view -----------------------------------------------------------------

# Hex-encoded float fields by event type; FEATURE_SNAPSHOT's hold lists of them.
_FLOAT_FIELDS = {
    "DATA_INGESTED": ("value",),
    "DECISION": ("pi", "pi_raw"),
    "OUTCOME_OBSERVED": ("reward",),
    "ALERT": ("threshold", "value"),
    "FEATURE_SNAPSHOT": ("baseline", "treatment"),
}


def decoded_floats(event_type: str, payload: dict) -> dict:
    """A copy of ``payload`` with its hex-encoded float fields decoded, for
    display; fields that do not hold the expected encoding stay as they are."""
    view = dict(payload)
    for name in _FLOAT_FIELDS.get(event_type, ()):
        value = view.get(name)
        if isinstance(value, str):
            view[name] = decode_float(value)
        elif isinstance(value, list):
            view[name] = [decode_float(v) for v in value]
    return view


# -- the stream index ------------------------------------------------------------

Row = tuple[FeatureSnapshot, int, float]  # (snapshot, action, reward) of one consumed outcome


def parse_value(record: EventEnvelope):
    """The typed value :meth:`StreamIndex.apply` takes with ``record``."""
    etype, payload = record.event_type, record.payload
    if etype == "FEATURE_SNAPSHOT":
        return parse_snapshot(payload)
    if etype == "DECISION":
        return parse_decision(payload)
    if etype == "OUTCOME_OBSERVED":
        return parse_outcome(payload)
    if etype == "MODEL_UPDATE":
        return parse_update(payload)
    if etype == "VERSION_CHANGE":
        return parse_version_change(payload)
    if etype == "HEADER":
        return parse_header(payload)
    return None  # the index keeps the other event types by envelope alone


@dataclass
class StreamIndex:
    """What the runtime, replay and the monitor know of a stream's records.

    Snapshots and decisions are keyed by ``(participant_id, decision_index)``
    and hold the record with its typed value; a later snapshot for a point
    replaces the earlier one, a second decision is a structural error. An
    outcome stays pending until a MODEL_UPDATE consuming it is applied.
    """

    header: HeaderInfo | None = None
    versions: list[tuple[int, str]] = field(default_factory=list)  # (seq, id) per VERSION_CHANGE
    fingerprints: dict[str, str] = field(default_factory=dict)  # version id -> its logic's fingerprint
    stamped: dict[str, int] = field(default_factory=dict)  # envelope version_id -> first seq
    size: int = 0  # records applied
    snapshots: dict[tuple[str, int], tuple[EventEnvelope, FeatureSnapshot]] = field(default_factory=dict)
    decisions: dict[tuple[str, int], tuple[EventEnvelope, DecisionRecord]] = field(default_factory=dict)
    outcomes: dict[int, OutcomeInfo] = field(default_factory=dict)
    pending: dict[str, list[int]] = field(default_factory=dict)  # participant -> outcome seqs
    updates: list[tuple[EventEnvelope, UpdateInfo, list[Row]]] = field(default_factory=list)
    errors: list[EventEnvelope] = field(default_factory=list)

    @classmethod
    def fold(cls, records: Iterable[EventEnvelope]) -> "StreamIndex":
        """The index of a ledger's records, each payload parsed once. The
        records are taken one at a time, so a stream from
        :func:`ledgerloop.ledger.read_records` is never held whole, and a
        problem is raised at the first record that has one."""
        index = cls()
        for record in records:
            if index.size == 0 and record.event_type != "HEADER":
                break
            index.apply(record, parse_value(record))
        if index.header is None:
            raise StructuralAuditError("ledger does not start with a HEADER record")
        return index

    def apply(self, record: EventEnvelope, value) -> None:
        """Fold in one record with the typed value of its payload."""
        self.size += 1
        self.stamped.setdefault(record.version_id, record.seq)
        etype = record.event_type
        if etype == "FEATURE_SNAPSHOT":
            participant_id, decision_index, snapshot = value
            self.snapshots[(participant_id, decision_index)] = (record, snapshot)
        elif etype == "DECISION":
            key = (value.participant_id, value.decision_index)
            if key in self.decisions:
                raise StructuralAuditError(f"DECISION at seq {record.seq} repeats {key}")
            self.decisions[key] = (record, value)
        elif etype == "OUTCOME_OBSERVED":
            self.outcomes[record.seq] = value
            self.pending.setdefault(value.participant_id, []).append(record.seq)
        elif etype == "MODEL_UPDATE":
            rows = self.batch(value.participant_id, value.batch_seqs, record.seq)
            pending = self.pending.get(value.participant_id, [])
            self.pending[value.participant_id] = [s for s in pending if s not in value.batch_seqs]
            self.updates.append((record, value, rows))
        elif etype == "ERROR":
            self.errors.append(record)
        elif etype == "VERSION_CHANGE":
            version_id, fingerprint = value
            if version_id in self.fingerprints:
                raise StructuralAuditError(
                    f"VERSION_CHANGE at seq {record.seq} activates {version_id!r} a second time"
                )
            self.versions.append((record.seq, version_id))
            self.fingerprints[version_id] = fingerprint
        elif etype == "HEADER":
            self.header = value

    def batch(self, participant_id: str, batch_seqs, seq: int) -> list[Row]:
        """The rows of an update at ``seq`` consuming ``batch_seqs``; raises
        StructuralAuditError unless the seqs are non-empty, increase, and each
        is a pending earlier outcome of ``participant_id`` with a snapshot and
        decision."""
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
        """The version the last VERSION_CHANGE at or before ``seq`` activated."""
        i = bisect_right(self.versions, seq, key=itemgetter(0))
        if i == 0:
            raise StructuralAuditError(f"no version active at seq {seq}")
        return self.versions[i - 1][1]


def stream_index(source: Ledger | StreamIndex) -> StreamIndex:
    """The index of a ledger, folded from its records; an index is its own."""
    return source if isinstance(source, StreamIndex) else StreamIndex.fold(source.records())
