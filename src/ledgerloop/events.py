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

:class:`StreamIndex` is the one fold over ledger records, and the only
place the rules of a stream's structure are written. The runtime checks
each record it is about to append against them and commits it once it is
written; replay and the monitor fold the records of the read pass, each with
its typed payload. All three therefore index versions, snapshots, decisions
and outcomes, refuse the same records, and count what the monitor reports,
with the same code. Replay
checks each decision and update right after the fold applies it, so an
audit is one pass over the file; the index forgets a point once an update
has consumed its outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterable

from . import runtime
from .errors import ConfigurationError, DecodeError, StructuralAuditError
from .ledger import ENVIRONMENT_PROFILES, FORMAT_VERSION, LEDGER_FORMAT, EventEnvelope, _Refusal, decode_as
from .ledger import config_digest, frozen_record
from .policy import DecisionRecord, FeatureSnapshot, ModelConfig


@dataclass(frozen=True)
class RunHeader:
    """The sections of a HEADER's ``config`` that the runtime runs from and
    the audits read, typed, and checked against each other
    (:func:`ledgerloop.runtime.check_features`)."""

    model: ModelConfig
    schedule: runtime.Schedule
    features: runtime.FeatureSpec
    imputation: runtime.ImputationPolicy
    injection: runtime.FailureInjectionSpec
    participants: tuple[str, ...]

    def __post_init__(self):
        runtime.check_features(self.model, self.features, self.imputation)


_RUN_HEADER_MEMBERS = tuple(f.name for f in fields(RunHeader))


@dataclass(frozen=True)
class HeaderInfo:
    """A HEADER payload, and a run's one configuration: the runtime is built
    from it and logs it as it is. ``config`` stays the canonical dict it was
    written as, since the fold checks its digest against ``config_digest``;
    its six :class:`RunHeader` sections are decoded once, on construction,
    and ``roster`` is the set of its participants. A config whose sections
    disagree is a ``malformed HEADER config``."""

    stream_id: str
    environment_profile: str
    deployment_seed: int
    config: dict
    config_digest: str
    format_version: int = FORMAT_VERSION
    model: ModelConfig = field(init=False)
    schedule: runtime.Schedule = field(init=False)
    features: runtime.FeatureSpec = field(init=False)
    imputation: runtime.ImputationPolicy = field(init=False)
    injection: runtime.FailureInjectionSpec = field(init=False)
    participants: tuple[str, ...] = field(init=False)
    roster: frozenset[str] = field(init=False)

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
        object.__setattr__(self, "roster", frozenset(self.participants))


@frozen_record
class DatumInfo:
    participant_id: str
    feature: str
    value: float
    device_ts: int
    superseded_snapshot_seq: int | None


@frozen_record
class SnapshotInfo(FeatureSnapshot):
    """A FEATURE_SNAPSHOT payload: the snapshot of one decision point, with
    the point's key as two more members."""

    participant_id: str
    decision_index: int


@frozen_record
class OutcomeInfo:
    participant_id: str
    decision_index: int
    reward: float
    device_ts: int


@frozen_record
class UpdateInfo:
    participant_id: str
    batch_seqs: tuple[int, ...]
    pre_state_hash: bytes
    post_state_hash: bytes
    post_state: bytes


@frozen_record
class VersionInfo:
    version_id: str
    fingerprint: str
    previous_version_id: str | None


@frozen_record
class ErrorInfo:
    kind: str
    message: str
    participant_id: str | None = None
    decision_index: int | None = None


@frozen_record
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
Point = tuple[str, int]  # (participant_id, decision_index)
_POINT_EVENTS = frozenset({"FEATURE_SNAPSHOT", "DECISION", "OUTCOME_OBSERVED"})  # payloads that name a point
_NO_HEADER = "ledger does not start with a HEADER record"


@dataclass
class RunningFsum:
    """``math.fsum`` over the values added so far, kept as fsum keeps it
    while it runs: the non-overlapping partials of Shewchuk's exact sum
    ("Adaptive precision floating-point arithmetic and fast robust geometric
    predicates", 1997). So :meth:`value` gives fsum's bits over every value
    added, while the state is a few floats however many were added. The
    values must be finite and sum without overflow, as the probabilities in
    [0, 1] a DECISION payload holds do."""

    partials: list[float] = field(default_factory=list)

    def add(self, x: float) -> None:
        partials, i = self.partials, 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x] if x else []

    def value(self) -> float:
        return math.fsum(self.partials)


@dataclass
class Counts:
    """What the monitor reads of one day's records, or of a whole stream's.
    Decisions and snapshots count on the day of their decision index;
    updates and errors on the trial day of their backend timestamp."""

    decisions: int = 0
    fallbacks: int = 0
    pi_sum: RunningFsum = field(default_factory=RunningFsum)
    tags: int = 0  # provenance tags of each point's current snapshot
    observed: int = 0  # of those, the "observed" ones
    updates: int = 0
    update_failures: int = 0
    errors: int = 0


@dataclass
class StreamIndex:
    """The one fold over a stream's records, and the one home of the rules a
    stream's structure must keep (:meth:`check`). The runtime checks each
    record before it appends it and commits it after; replay and the monitor
    fold the verified records of a file.

    It keeps only what a later record can still use: the versions, and the
    first seq of each version stamp; the pending outcomes; the monitor's
    :class:`Counts`; and the snapshot and decision of each point
    (``(participant_id, decision_index)``) until an update consumes its
    outcome. What still grows with a trial's length:

    - ``snapshot_seqs``, each point's snapshot seq, for the seq late data
      names as superseded
    - ``decided`` and ``rewarded``, the points with a decision and with an
      outcome, for "no second decision, snapshot after it, or outcome"
    - ``consumed``, each consumed outcome seq's participant, for an update's
      "consumed twice" and "of another participant"
    - ``days``, one :class:`Counts` per day with a record
    - the snapshot and decision of a point whose outcome never arrives
    """

    header: HeaderInfo | None = None
    versions: list[tuple[int, str]] = field(default_factory=list)  # (seq, id) per VERSION_CHANGE
    fingerprints: dict[str, str] = field(default_factory=dict)  # version id -> its logic's fingerprint
    stamps: dict[str, int] = field(default_factory=dict)  # version id -> the first seq stamped with it
    size: int = 0  # records applied
    snapshots: dict[Point, SnapshotInfo] = field(default_factory=dict)
    decisions: dict[Point, DecisionRecord] = field(default_factory=dict)
    outcomes: dict[int, OutcomeInfo] = field(default_factory=dict)  # the pending ones, by seq
    pending: dict[str, list[int]] = field(default_factory=dict)  # participant -> its pending outcome seqs
    snapshot_seqs: dict[Point, int] = field(default_factory=dict)
    decided: set[Point] = field(default_factory=set)
    rewarded: set[Point] = field(default_factory=set)
    consumed: dict[int, str] = field(default_factory=dict)  # outcome seq -> participant
    days: dict[int, Counts] = field(default_factory=dict)
    totals: Counts = field(default_factory=Counts)

    @classmethod
    def fold(cls, records: Iterable[EventEnvelope]) -> "StreamIndex":
        """The index of a ledger's records, each with its typed payload.
        The records are taken one at a time, so a stream from
        :func:`ledgerloop.ledger.read_records` is never held whole, and a
        problem is raised at the first record that has one."""
        index = cls()
        for record in records:
            index.apply(record)
        return index.complete()

    def complete(self) -> "StreamIndex":
        """The index after its last record. StructuralAuditError if it has
        none, or if a record is stamped with a version no VERSION_CHANGE
        activates, naming the first seq with such a stamp."""
        if self.header is None:
            raise StructuralAuditError(_NO_HEADER)
        for version_id, seq in self.stamps.items():  # in order of first seq
            if version_id not in self.fingerprints:
                raise StructuralAuditError(f"version {version_id!r} stamped at seq {seq} is never activated")
        return self

    def apply(self, record: EventEnvelope) -> list[Row] | None:
        """Fold in one record: :meth:`check` it, then :meth:`commit` it.
        Returns the rows an update consumes."""
        rows = self.check(record.seq, record.stream_id, record.environment_profile, record.event_type, record.payload)
        self.commit(record)
        return rows

    def check(
        self, seq: int, stream_id: str, environment_profile: str, etype: str, value, _rows: list[Row] | None = None
    ) -> list[Row] | None:
        """Check the record at ``seq``, stamped with ``stream_id`` and
        ``environment_profile``, of event type ``etype`` and payload
        ``value``, against every rule below: StructuralAuditError naming its
        seq if it breaks one. Returns the rows the record consumes if it is
        an update (``_rows``: what :meth:`batch` gave for it, with nothing
        committed since), else None. Changes nothing, so the runtime checks
        a record before it appends it. The rules, each checked here only:

        - the first record is the only HEADER; its profile is a known one and
          its ``config_digest`` the digest of its config (:meth:`_begin`)
        - every record is stamped with the stream and profile the HEADER
          names
        - a record that names a participant names one of the HEADER's
          (:meth:`check_participant`)
        - a snapshot, decision or outcome names a decision index in
          ``[0, schedule.total_points)``
        - a point has no snapshot once it has its decision
        - a decision follows its point's snapshot and a VERSION_CHANGE, and
          is its point's only one
        - an outcome follows its point's decision, and is its point's only one
        - an update's batch is one :meth:`batch` takes
        - a VERSION_CHANGE activates a version not active before, and its
          ``previous_version_id`` names the version active before it
        - every version stamp is one a VERSION_CHANGE activates, which only
          :meth:`complete` can tell
        """
        header = self.header
        if header is None or etype == "HEADER":
            header = self._begin(seq, etype, value)
        if stream_id != header.stream_id or environment_profile != header.environment_profile:
            raise StructuralAuditError(
                f"{etype} at seq {seq} is stamped stream {stream_id!r} in profile "
                f"{environment_profile!r}, but the HEADER payload names stream "
                f"{header.stream_id!r} in profile {header.environment_profile!r}"
            )
        self.check_participant(seq, etype, getattr(value, "participant_id", None))
        if etype == "DATA_INGESTED":
            return None  # half of all records; nothing more to check
        if etype in _POINT_EVENTS:
            key = (value.participant_id, value.decision_index)
            total = header.schedule.total_points
            if not 0 <= value.decision_index < total:
                raise StructuralAuditError(
                    f"{etype} at seq {seq} names decision {value.decision_index}, not in [0, {total})"
                )
            if etype == "FEATURE_SNAPSHOT":
                if key in self.decided:
                    raise StructuralAuditError(f"FEATURE_SNAPSHOT at seq {seq} follows the DECISION of {key}")
            elif etype == "DECISION":
                if key in self.decided:
                    raise StructuralAuditError(f"DECISION at seq {seq} repeats {key}")
                if key not in self.snapshots:
                    raise StructuralAuditError(f"DECISION at seq {seq} has no prior FEATURE_SNAPSHOT for {key}")
                if not self.versions:
                    raise StructuralAuditError(f"DECISION at seq {seq} has no VERSION_CHANGE before it")
            elif key in self.rewarded:
                raise StructuralAuditError(f"OUTCOME_OBSERVED at seq {seq} repeats {key}")
            elif key not in self.decided:
                raise StructuralAuditError(f"OUTCOME_OBSERVED at seq {seq} has no prior DECISION of {key}")
        elif etype == "MODEL_UPDATE":
            return self.batch(value.participant_id, value.batch_seqs, seq) if _rows is None else _rows
        elif etype == "VERSION_CHANGE":
            if value.version_id in self.fingerprints:
                raise StructuralAuditError(
                    f"VERSION_CHANGE at seq {seq} activates {value.version_id!r} a second time"
                )
            previous = self.versions[-1][1] if self.versions else None
            if value.previous_version_id != previous:
                raise StructuralAuditError(
                    f"VERSION_CHANGE at seq {seq} names previous version "
                    f"{value.previous_version_id!r}, not {previous!r}"
                )
        return None

    def check_participant(self, seq: int, etype: str, participant_id: str | None) -> None:
        """The rule that a record naming a participant names one of the
        HEADER's: StructuralAuditError naming ``seq`` unless
        ``participant_id`` is None or in the HEADER's roster. The runtime
        asks it also of an update cycle that has nothing to log."""
        if participant_id is None:
            return
        if self.header is None:
            raise StructuralAuditError(_NO_HEADER)
        if participant_id not in self.header.roster:
            raise StructuralAuditError(
                f"{etype} at seq {seq} names participant {participant_id!r}, not one of the HEADER's"
            )

    def commit(self, record: EventEnvelope) -> None:
        """Fold in a record :meth:`check` passed."""
        value, etype = record.payload, record.event_type
        self.stamps.setdefault(record.version_id, record.seq)
        if etype == "DATA_INGESTED":
            pass  # only counted
        elif etype == "HEADER":
            self.header = value
        elif etype == "FEATURE_SNAPSHOT":
            key = (value.participant_id, value.decision_index)
            tags, replaced = value.provenance, self.snapshots[key].provenance if key in self.snapshots else ()
            added, observed = len(tags) - len(replaced), tags.count("observed") - replaced.count("observed")
            for counts in self._counts(value.decision_index // self.header.schedule.points_per_day):
                counts.tags += added
                counts.observed += observed
            self.snapshots[key] = value
            self.snapshot_seqs[key] = record.seq
        elif etype == "DECISION":
            key = (value.participant_id, value.decision_index)
            for counts in self._counts(value.decision_index // self.header.schedule.points_per_day):
                counts.decisions += 1
                counts.fallbacks += value.fallback
                counts.pi_sum.add(value.pi)
            self.decided.add(key)
            self.decisions[key] = value
        elif etype == "OUTCOME_OBSERVED":
            self.rewarded.add((value.participant_id, value.decision_index))
            self.outcomes[record.seq] = value
            self.pending.setdefault(value.participant_id, []).append(record.seq)
        elif etype == "MODEL_UPDATE":
            pid, batch_seqs = value.participant_id, value.batch_seqs
            for outcome_seq in batch_seqs:
                key = (pid, self.outcomes.pop(outcome_seq).decision_index)
                del self.snapshots[key], self.decisions[key]
                self.consumed[outcome_seq] = pid
            self.pending[pid] = [s for s in self.pending[pid] if s not in batch_seqs]
            for counts in self._counts(self._trial_day(record.backend_ts)):
                counts.updates += 1
        elif etype == "ERROR":
            for counts in self._counts(self._trial_day(record.backend_ts)):
                counts.errors += 1
                counts.update_failures += value.kind == "update_failure"
        elif etype == "VERSION_CHANGE":
            self.versions.append((record.seq, value.version_id))
            self.fingerprints[value.version_id] = value.fingerprint
        self.size += 1

    def _begin(self, seq: int, etype: str, header: HeaderInfo) -> HeaderInfo:
        """``header``, the payload of the first record, once that record is a
        HEADER of a known profile that holds its config's digest."""
        if etype != "HEADER":
            raise StructuralAuditError(_NO_HEADER)
        if self.header is not None:
            raise StructuralAuditError(f"HEADER at seq {seq} is not the ledger's first record")
        if header.environment_profile not in ENVIRONMENT_PROFILES:
            raise StructuralAuditError(
                f"HEADER at seq {seq} names profile {header.environment_profile!r}, "
                f"not one of {'/'.join(ENVIRONMENT_PROFILES)}"
            )
        if config_digest(header.config) != header.config_digest:
            raise StructuralAuditError(
                f"HEADER config_digest {header.config_digest!r} is not the digest of its config"
            )
        return header

    def _counts(self, day: int) -> tuple[Counts, Counts]:
        """The counts of ``day`` and the totals."""
        return self.days.get(day) or self.days.setdefault(day, Counts()), self.totals

    def _trial_day(self, backend_ts: int) -> int:
        """The trial day of a backend timestamp; earlier and later ones count on the first and last day."""
        schedule = self.header.schedule
        day = (backend_ts - schedule.trial_start_ts) // runtime.MS_PER_DAY
        return min(max(day, 0), schedule.trial_days - 1)

    def batch(self, participant_id: str, batch_seqs, seq: int) -> list[Row]:
        """The rows of an update at ``seq`` consuming ``batch_seqs``; raises
        StructuralAuditError unless the seqs are non-empty, increase, and each
        is a pending earlier outcome of ``participant_id``."""
        if not batch_seqs:
            raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} has an empty batch_seqs")
        if any(a >= b for a, b in zip(batch_seqs, batch_seqs[1:])):
            raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} has non-increasing batch_seqs")
        rows = []
        for outcome_seq in batch_seqs:
            outcome = self.outcomes.get(outcome_seq)
            owner = self.consumed.get(outcome_seq) if outcome is None else outcome.participant_id
            problem = None
            if outcome_seq >= seq:
                problem = f"references future seq {outcome_seq}"
            elif owner is None:
                problem = f"references seq {outcome_seq}, which is not an OUTCOME_OBSERVED event"
            elif owner != participant_id:
                problem = f"has outcome seq {outcome_seq} of another participant"
            elif outcome is None:
                problem = f"has outcome seq {outcome_seq} consumed twice"
            if problem is not None:
                raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} {problem}")
            key = (participant_id, outcome.decision_index)  # decided, so snapshotted, when it came
            rows.append((self.snapshots[key], self.decisions[key].action, outcome.reward))
        return rows
