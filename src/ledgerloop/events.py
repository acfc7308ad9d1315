"""Typed payloads of every ledger event, and the one index over them.

Each event type's payload is one frozen dataclass (:data:`PAYLOADS`). It is
written as ``map_floats(value, encode_float)`` (:func:`append`) and read back
by the strict inverse of that, :func:`ledgerloop.ledger.strict_inverse`
(:func:`decode_payload`); no other module knows how a payload field is
encoded. The ``parse_*`` functions are the inverse's entry points for the
event types read most; the benchmark's tracer times them by name.

:class:`StreamIndex` is the one fold over ledger records. The runtime applies
each record it appends together with the typed value it appended; replay and
the monitor fold a ledger's records, decoding each payload once. Both sides
therefore index versions, snapshots, decisions and outcomes with the same
code.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Iterable, NamedTuple

from . import runtime
from .errors import ConfigurationError, DecodeError, StructuralAuditError
from .ledger import FORMAT_VERSION, EventEnvelope, Ledger, map_floats, strict_inverse
from .policy import DecisionRecord, FeatureSnapshot, ModelConfig


@dataclass(frozen=True)
class RunHeader:
    """What the audits read of a HEADER's ``config``, typed."""

    model: ModelConfig
    schedule: runtime.Schedule
    participants: tuple[str, ...]


_decode_run_header = strict_inverse(RunHeader, "malformed HEADER config")
_RUN_HEADER_MEMBERS = tuple(f.name for f in fields(RunHeader))


@dataclass(frozen=True)
class HeaderInfo:
    """A HEADER payload. ``config`` stays the canonical dict it was written
    as, since its digest is checked against ``config_digest``; its model,
    schedule and participants are decoded once, on construction."""

    stream_id: str
    environment_profile: str
    deployment_seed: int
    config: dict
    config_digest: str
    format_version: int = FORMAT_VERSION
    model: ModelConfig = field(init=False)
    schedule: runtime.Schedule = field(init=False)
    participants: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.format_version != FORMAT_VERSION:
            raise ConfigurationError(f"format_version {self.format_version!r} is not {FORMAT_VERSION}")
        config = self.config
        typed = _decode_run_header({k: config[k] for k in _RUN_HEADER_MEMBERS if k in config})
        for name in _RUN_HEADER_MEMBERS:
            object.__setattr__(self, name, getattr(typed, name))


@dataclass(frozen=True)
class DatumInfo:
    participant_id: str
    feature: str
    value: float
    device_ts: int
    superseded_snapshot_seq: int | None


@dataclass(frozen=True)
class SnapshotInfo(FeatureSnapshot):
    """A FEATURE_SNAPSHOT payload: the snapshot of one decision point, with
    the point's key as two more members."""

    participant_id: str
    decision_index: int


@dataclass(frozen=True)
class OutcomeInfo:
    participant_id: str
    decision_index: int
    reward: float
    device_ts: int


@dataclass(frozen=True)
class UpdateInfo:
    participant_id: str
    batch_seqs: tuple[int, ...]
    pre_state_hash: bytes
    post_state_hash: bytes
    post_state: bytes


@dataclass(frozen=True)
class VersionInfo:
    version_id: str
    fingerprint: str
    previous_version_id: str | None


@dataclass(frozen=True)
class ErrorInfo:
    kind: str
    message: str
    participant_id: str | None = None
    decision_index: int | None = None


@dataclass(frozen=True)
class AlertInfo:
    metric: str
    comparator: str
    threshold: float
    value: float
    window: str
    day: int | None
    severity: str


# The schema: each event type's payload.
PAYLOADS: dict[str, type] = {
    "HEADER": HeaderInfo,
    "DATA_INGESTED": DatumInfo,
    "FEATURE_SNAPSHOT": SnapshotInfo,
    "DECISION": DecisionRecord,
    "OUTCOME_OBSERVED": OutcomeInfo,
    "MODEL_UPDATE": UpdateInfo,
    "VERSION_CHANGE": VersionInfo,
    "ERROR": ErrorInfo,
    "ALERT": AlertInfo,
}
_EVENT_TYPES = {cls: event_type for event_type, cls in PAYLOADS.items()}
_DECODERS = {
    event_type: strict_inverse(cls, f"malformed {event_type} payload")
    for event_type, cls in PAYLOADS.items()
}


def append(ledger: Ledger, value, **envelope) -> EventEnvelope:
    """Append ``value``, an instance of one of :data:`PAYLOADS`, as a record
    of its event type; :meth:`Ledger.append` writes it as
    ``map_floats(value, encode_float)``."""
    return ledger.append(_EVENT_TYPES[type(value)], value, **envelope)


def decode_payload(event_type: str, payload):
    """The typed value of a payload of ``event_type``; DecodeError unless
    the payload is one :func:`append` could have written."""
    decode = _DECODERS.get(event_type)
    if decode is None:
        raise DecodeError(f"unknown event type {event_type!r}")
    return decode(payload)


def parse_header(payload) -> HeaderInfo:
    return decode_payload("HEADER", payload)


def parse_data_ingested(payload) -> DatumInfo:
    return decode_payload("DATA_INGESTED", payload)


def parse_snapshot(payload) -> SnapshotInfo:
    return decode_payload("FEATURE_SNAPSHOT", payload)


def parse_decision(payload) -> DecisionRecord:
    return decode_payload("DECISION", payload)


def parse_outcome(payload) -> OutcomeInfo:
    return decode_payload("OUTCOME_OBSERVED", payload)


def parse_update(payload) -> UpdateInfo:
    return decode_payload("MODEL_UPDATE", payload)


def decoded_floats(event_type: str, payload: dict) -> dict:
    """``payload`` with its floats decoded, for display; one that does not
    decode is shown as it is stored."""
    try:
        return map_floats(decode_payload(event_type, payload), float)
    except DecodeError:
        return payload


# -- the stream index ------------------------------------------------------------

Row = tuple[FeatureSnapshot, int, float]  # (snapshot, action, reward) of one consumed outcome


class Stamp(NamedTuple):
    """What the index keeps of a record's envelope beside its typed value:
    all that the runtime, replay and the monitor read of it."""

    seq: int
    backend_ts: int
    version_id: str

    @classmethod
    def of(cls, record: EventEnvelope) -> "Stamp":
        return cls(record.seq, record.backend_ts, record.version_id)


# The fold calls these entry points by their module-level names, so a
# wrapper bound to one of the names (the benchmark's tracer) sees every call.
_ENTRY_POINTS = {
    "HEADER": "parse_header",
    "DATA_INGESTED": "parse_data_ingested",
    "FEATURE_SNAPSHOT": "parse_snapshot",
    "DECISION": "parse_decision",
    "OUTCOME_OBSERVED": "parse_outcome",
    "MODEL_UPDATE": "parse_update",
}


def parse_value(record: EventEnvelope):
    """The typed value :meth:`StreamIndex.apply` takes with ``record``."""
    event_type = record.event_type
    entry = _ENTRY_POINTS.get(event_type)
    if entry is None:
        return decode_payload(event_type, record.payload)
    return globals()[entry](record.payload)


@dataclass
class StreamIndex:
    """What the runtime, replay and the monitor know of a stream's records.

    Snapshots, decisions, updates and errors are kept as the record's
    :class:`Stamp` with its typed value, never the envelope or its payload
    dict. Snapshots and decisions are keyed by
    ``(participant_id, decision_index)``; a later snapshot for a point
    replaces the earlier one, a second decision is a structural error. An
    outcome stays pending until a MODEL_UPDATE consuming it is applied.
    """

    header: HeaderInfo | None = None
    versions: list[tuple[int, str]] = field(default_factory=list)  # (seq, id) per VERSION_CHANGE
    fingerprints: dict[str, str] = field(default_factory=dict)  # version id -> its logic's fingerprint
    stamped: dict[str, int] = field(default_factory=dict)  # envelope version_id -> first seq
    size: int = 0  # records applied
    snapshots: dict[tuple[str, int], tuple[Stamp, SnapshotInfo]] = field(default_factory=dict)
    decisions: dict[tuple[str, int], tuple[Stamp, DecisionRecord]] = field(default_factory=dict)
    outcomes: dict[int, OutcomeInfo] = field(default_factory=dict)
    pending: dict[str, list[int]] = field(default_factory=dict)  # participant -> outcome seqs
    updates: list[tuple[Stamp, UpdateInfo, list[Row]]] = field(default_factory=list)
    errors: list[tuple[Stamp, ErrorInfo]] = field(default_factory=list)

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
            self.versions.append((record.seq, value.version_id))
            self.fingerprints[value.version_id] = value.fingerprint
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

