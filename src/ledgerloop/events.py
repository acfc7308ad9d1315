"""Typed payloads of every ledger event, and the one index over them.

Each event type's payload is one frozen dataclass (:data:`PAYLOADS`), and
every ledger record carries an instance of it, whether it is appended or
read back. The annotations are compiled by the ledger's one annotation
compiler: into the writer :meth:`ledgerloop.ledger.Ledger.append` writes a
value's record with, which gives the record its event type and whose
payload bytes are those of ``map_floats(value, encode_float)``; into the
line matcher the read pass decodes a record's line with; and into the
annotation walk, ``decode_as(cls, payload, LEDGER_FORMAT)``, which decodes a
payload dict (:func:`decode_payload`) for a line no matcher takes, such as
the HEADER's. No other module knows how a payload field is encoded. The
``parse_*`` functions are the walk's entry points by event type; nothing in
the read pass calls them, but the benchmark's tracer wraps them by name.

:class:`StreamIndex` is the one fold over ledger records. The runtime applies
each record it appends, whose payload is the typed value it appended; replay
and the monitor fold the records of the read pass, each with its typed
payload. Both sides therefore index versions, snapshots, decisions and
outcomes with the same code.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Iterable, NamedTuple

from . import runtime
from .errors import ConfigurationError, DecodeError, StructuralAuditError
from .ledger import ENVIRONMENT_PROFILES, FORMAT_VERSION, LEDGER_FORMAT, EventEnvelope, _Refusal, decode_as
from .ledger import config_digest
from .policy import DecisionRecord, FeatureSnapshot, ModelConfig


@dataclass(frozen=True)
class RunHeader:
    """What the audits read of a HEADER's ``config``, typed."""

    model: ModelConfig
    schedule: runtime.Schedule
    participants: tuple[str, ...]


_RUN_HEADER_MEMBERS = tuple(f.name for f in fields(RunHeader))


@dataclass(frozen=True)
class HeaderInfo:
    """A HEADER payload. ``config`` stays the canonical dict it was written
    as, since the fold checks its digest against ``config_digest``; its
    model, schedule and participants are decoded once, on construction."""

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
        given = {k: self.config[k] for k in _RUN_HEADER_MEMBERS if k in self.config}
        try:
            typed = decode_as(RunHeader, given, LEDGER_FORMAT)
        except _Refusal as refusal:
            raise DecodeError(f"malformed HEADER config: {refusal}") from None
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


def decode_payload(event_type: str, payload):
    """The typed value of a payload dict of ``event_type``; DecodeError
    (without a seq) unless the payload is one ``Ledger.append`` could have
    written. A refusal of the walk is prefixed ``malformed <event_type>
    payload:``; the HEADER's own refusal of its config passes through as it
    is."""
    cls = PAYLOADS.get(event_type)
    if cls is None:
        raise DecodeError(f"unknown event type {event_type!r}")
    try:
        return decode_as(cls, payload, LEDGER_FORMAT)
    except _Refusal as refusal:
        raise DecodeError(f"malformed {event_type} payload: {refusal}") from None


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


@dataclass
class StreamIndex:
    """What the runtime, replay and the monitor know of a stream's records,
    which :meth:`apply` checks are those of one stream in one profile.

    Snapshots, decisions, updates and errors are kept as the record's
    :class:`Stamp` with its typed value, never the envelope. Snapshots and
    decisions are keyed by ``(participant_id, decision_index)``; a later snapshot for a point
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
        """The index of a ledger's records, each with its typed payload.
        The records are taken one at a time, so a stream from
        :func:`ledgerloop.ledger.read_records` is never held whole, and a
        problem is raised at the first record that has one."""
        index = cls()
        for record in records:
            index.apply(record)
        if index.header is None:
            raise StructuralAuditError("ledger does not start with a HEADER record")
        return index

    def apply(self, record: EventEnvelope) -> None:
        """Fold in one record, keeping its typed payload. StructuralAuditError,
        naming the seq, for a HEADER :meth:`_begin` refuses, a record of
        another stream or profile than the HEADER's, a repeated decision, a
        VERSION_CHANGE that activates a version again or whose
        ``previous_version_id`` is not the version active before it, and an
        update whose batch :meth:`batch` refuses."""
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

    def _begin(self, record: EventEnvelope) -> HeaderInfo:
        """The payload of the first record, a HEADER of a known profile that holds its config's digest."""
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

