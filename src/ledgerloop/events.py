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
with the same code. The index forgets a point once an update has consumed
its outcome, and keeps per participant, not per point, what tells a later
record of a forgotten point apart.

:func:`decision_step` and :func:`update_step` are the runtime's two
derivations, a decision of a point and an update of a participant's
posterior, each a pure function of what the index and the HEADER hold. The
runtime logs what they give; replay runs them again right after the fold
applies each decision and update and compares, so an audit is one pass over
the file and the algorithm has one account.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

from .config import (
    EnvironmentSpec,
    FailureInjectionSpec,
    FeatureSpec,
    ImputationPolicy,
    Schedule,
    check_features,
)
from .errors import ConfigurationError, DecodeError, InjectedFailure, StructuralAuditError
from .ledger import ENVIRONMENT_PROFILES, FORMAT_VERSION, LEDGER_FORMAT, EventEnvelope, _got, _Refusal, decode_as
from .ledger import config_digest, frozen_record
from .policy import FALLBACK_PI, DecisionRecord, FeatureSnapshot, ModelConfig
from .policy import canonical_serialize, decide, derive_decision_seed
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class RunHeader:
    """A HEADER's ``config``: the sections of a run that the runtime runs
    from and the audits read, typed, and checked against each other
    (:func:`ledgerloop.config.check_features`), with the twin environment
    the run was simulated in. No participant is named twice, and the
    environment is as long and as wide as the schedule and the roster."""

    model: ModelConfig
    schedule: Schedule
    features: FeatureSpec
    imputation: ImputationPolicy
    injection: FailureInjectionSpec
    participants: tuple[str, ...]
    environment: EnvironmentSpec

    def __post_init__(self):
        check_features(self.model, self.features, self.imputation)
        seen = set()
        for participant in self.participants:
            if participant in seen:
                raise ConfigurationError(f"participants: {participant!r} is named twice")
            seen.add(participant)
        if self.environment.n_days != self.schedule.trial_days:
            raise ConfigurationError(
                f"environment.n_days {self.environment.n_days} is not schedule.trial_days {self.schedule.trial_days}"
            )
        if self.environment.n_participants != len(self.participants):
            raise ConfigurationError(
                f"environment.n_participants {self.environment.n_participants} is not the "
                f"{len(self.participants)} participants named"
            )


@dataclass(frozen=True)
class HeaderInfo:
    """A HEADER payload, and a run's one configuration: the runtime is built
    from it and logs it as it is. ``config_digest`` is the digest of
    ``config`` (:func:`ledgerloop.ledger.config_digest`), and ``roster`` the
    set of its participants."""

    stream_id: str
    environment_profile: str
    deployment_seed: int
    config: RunHeader
    config_digest: str
    format_version: int = FORMAT_VERSION
    roster: frozenset[str] = field(init=False)

    def __post_init__(self):
        if self.format_version != FORMAT_VERSION:
            raise ConfigurationError(f"format_version {self.format_version!r} is not {FORMAT_VERSION}")
        object.__setattr__(self, "roster", frozenset(self.config.participants))


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
    payload:``, but one of a HEADER's config, or of a member inside it,
    ``malformed HEADER config:``."""
    cls = PAYLOADS.get(event_type)
    if cls is None:
        raise DecodeError(f"unknown event type {event_type!r}")
    try:
        return decode_as(cls, payload, LEDGER_FORMAT)
    except _Refusal as refusal:
        member, _, inner = refusal.path[1:].partition(".")
        if cls is HeaderInfo and member == "config":
            raise DecodeError(f"malformed HEADER config: {_Refusal(refusal.problem, inner)}") from None
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
_POINT_EVENTS = frozenset({"FEATURE_SNAPSHOT", "DECISION", "OUTCOME_OBSERVED"})  # payloads that name a point
_TIMED_EVENTS = frozenset({"DATA_INGESTED", "OUTCOME_OBSERVED"})  # payloads that repeat the envelope's device_ts
_ERROR_KINDS = ("policy_exception", "update_failure")
_METHODS = {"imputed": "locf"}  # provenance tag -> the imputation method a snapshot names for it; None for the others
_NO_HEADER = "ledger does not start with a HEADER record"


@dataclass(slots=True)
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


@dataclass(slots=True)
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


@dataclass(slots=True)
class Participant:
    """What the fold keeps of one participant: what a later record of it can
    still read, and no payload object but a point's snapshot.

    - ``points`` and ``seqs``: the seq of each point's last snapshot, by
      decision index, in two sorted arrays of machine ints (16 bytes a point
      and no object per entry). Snapshots come in non-decreasing decision
      index (a rule of the fold), so a snapshot of a new point appends one
      entry, a new snapshot of the last point replaces its seq, and nothing
      else adds any.
    - ``snapshots`` and ``actions``: by decision index, a point's snapshot,
      and its decision's action once decided, until an update consumes the
      point's outcome
    - ``pending``: outcome seq -> ``(decision_index, reward)`` of each
      outcome no update has consumed, in seq order, and ``pending_points``
      the decision indexes of those
    - ``last_decided``: the index of its last decision, below which no
      snapshot or decision may come; -1 before its first
    """

    points: array = field(default_factory=lambda: array("q"))
    seqs: array = field(default_factory=lambda: array("q"))
    snapshots: dict[int, SnapshotInfo] = field(default_factory=dict)
    actions: dict[int, int] = field(default_factory=dict)
    pending: dict[int, tuple[int, float]] = field(default_factory=dict)
    pending_points: set[int] = field(default_factory=set)
    last_decided: int = -1

    def snapshot_seq(self, decision_index: int) -> int | None:
        """The seq of the point's last snapshot, or None if it has none."""
        points = self.points
        if not points or decision_index > points[-1]:  # data on time name a point not yet assembled
            return None
        i = bisect_left(points, decision_index)
        return self.seqs[i] if points[i] == decision_index else None


_UNSEEN = Participant()  # read through StreamIndex.participant only


@dataclass
class StreamIndex:
    """The one fold over a stream's records, and the one home of the rules a
    stream's structure must keep (:meth:`check`). The runtime checks each
    record before it appends it and commits it after; replay and the monitor
    fold the verified records of a file.

    It keeps only what a later record can still use: the versions, and the
    first seq of each version stamp; one :class:`Participant` record per
    participant, made at its first snapshot, for the points of its stream;
    the policy_exception ERROR a fallback DECISION must follow next; and
    the monitor's :class:`Counts`. What still grows with a trial's length:

    - each participant's snapshot seqs, for the seq late data names as
      superseded
    - ``days``, one :class:`Counts` per day with a record
    - the snapshot, action and outcome of a point whose update never comes
    """

    header: HeaderInfo | None = None
    versions: list[tuple[int, str]] = field(default_factory=list)  # (seq, id) per VERSION_CHANGE
    fingerprints: dict[str, str] = field(default_factory=dict)  # version id -> its logic's fingerprint
    stamps: dict[str, int] = field(default_factory=dict)  # version id -> the first seq stamped with it
    size: int = 0  # records applied
    participants: dict[str, Participant] = field(default_factory=dict)
    exception: ErrorInfo | None = None  # the last record, if a policy_exception ERROR
    snapshots_seen: int = 0  # points with a snapshot
    outcomes_seen: int = 0
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
        none, if a record is stamped with a version no VERSION_CHANGE
        activates, naming the first seq with such a stamp, or if the last
        record is a policy_exception ERROR, which its fallback DECISION must
        follow."""
        if self.header is None:
            raise StructuralAuditError(_NO_HEADER)
        for version_id, seq in self.stamps.items():  # in order of first seq
            if version_id not in self.fingerprints:
                raise StructuralAuditError(f"version {version_id!r} stamped at seq {seq} is never activated")
        if self.exception is not None:
            raise StructuralAuditError(f"ERROR at seq {self.size - 1} is a policy_exception with no DECISION after it")
        return self

    def apply(self, record: EventEnvelope) -> list[Row] | None:
        """Fold in one record: :meth:`check` it, then :meth:`commit` it.
        Returns the rows an update consumes."""
        rows = self.check(
            record.seq, record.stream_id, record.environment_profile, record.device_ts, record.event_type, record.payload
        )
        self.commit(record)
        return rows

    def check(
        self,
        seq: int,
        stream_id: str,
        environment_profile: str,
        device_ts: int | None,
        etype: str,
        value,
        _rows: list[Row] | None = None,
    ) -> list[Row] | None:
        """Check the record at ``seq``, stamped with ``stream_id``,
        ``environment_profile`` and ``device_ts``, of event type ``etype``
        and payload ``value``, against every rule below: StructuralAuditError
        naming its seq if it breaks one. Returns the rows the record
        consumes if it is an update (``_rows``: what :meth:`batch` gave for
        it, with nothing committed since), else None. Changes nothing, so
        the runtime checks a record before it appends it. The rules, each
        checked here only:

        - the first record is the only HEADER; its profile is a known one and
          its ``config_digest`` the digest of its config (:meth:`_begin`)
        - every record is stamped with the stream and profile the HEADER
          names
        - a record that names a participant names one of the HEADER's
          (:meth:`check_participant`)
        - a DATA_INGESTED or OUTCOME_OBSERVED payload's ``device_ts`` is its
          envelope's
        - a DATA_INGESTED's ``superseded_snapshot_seq`` is the seq of the
          last snapshot of the point whose window holds its ``device_ts``,
          or None if that point has none yet, as the runtime writes it
        - a snapshot, decision or outcome names a decision index in
          ``[0, schedule.total_points)``
        - a participant's decisions come in increasing decision index, and
          none of its snapshots follows a decision of the same or a later
          point; its snapshots come in non-decreasing decision index
        - a snapshot's imputation method is ``"locf"`` for an ``imputed``
          entry and None for any other, and its ``assembled_ts`` is its
          point's due time
        - a decision follows its point's snapshot and a VERSION_CHANGE
        - an outcome's point holds its decision and no pending outcome
        - an ERROR's ``kind`` is ``policy_exception`` or ``update_failure``,
          and its decision index, if any, is in ``[0, schedule.total_points)``
        - the record after a policy_exception ERROR is the fallback DECISION
          of the ERROR's point, whose ``fallback_reason`` is the ERROR's
          message, and a fallback DECISION comes only there
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
        if etype in _TIMED_EVENTS and value.device_ts != device_ts:
            raise StructuralAuditError(
                f"{etype} at seq {seq} carries device_ts {value.device_ts} in its payload "
                f"but {device_ts} in its envelope"
            )
        exception = self.exception  # the last record, if a policy_exception ERROR
        if exception is not None or etype == "DECISION" and value.fallback:
            if exception is None:
                raise StructuralAuditError(
                    f"DECISION at seq {seq} is a fallback with no policy_exception ERROR before it"
                )
            key = (exception.participant_id, exception.decision_index)
            if etype != "DECISION" or not value.fallback or (value.participant_id, value.decision_index) != key:
                raise StructuralAuditError(
                    f"{etype} at seq {seq} follows the policy_exception ERROR of {key}, not its fallback DECISION"
                )
            if value.fallback_reason != exception.message:
                raise StructuralAuditError(
                    f"DECISION at seq {seq} has a fallback_reason other than its ERROR's message"
                )
        if etype == "DATA_INGESTED":  # half of all records: one rule of their own, and done
            window = header.config.schedule.window(device_ts)
            superseded = self.participant(value.participant_id).snapshot_seq(window)
            if value.superseded_snapshot_seq != superseded:
                raise StructuralAuditError(
                    f"DATA_INGESTED at seq {seq} superseded_snapshot_seq: expected {superseded} for point "
                    f"{window}, {_got(value.superseded_snapshot_seq)}"
                )
            return None
        total = header.config.schedule.total_points
        if etype in _POINT_EVENTS:
            pid, idx = value.participant_id, value.decision_index
            kept = self.participant(pid)
            key, last, decided = (pid, idx), kept.last_decided, idx in kept.actions  # and its outcome not consumed
            problem = None
            if not 0 <= idx < total:
                problem = f"names decision {idx}, not in [0, {total})"
            elif etype == "OUTCOME_OBSERVED":
                if idx in kept.pending_points or idx == last and not decided:  # its outcome pending, or consumed
                    problem = f"repeats {key}"
                elif not decided and idx > last:
                    problem = f"has no prior DECISION of {key}"
                elif not decided:  # consumed, or never decided
                    problem = f"names {key}, which has no DECISION awaiting its outcome"
            elif idx <= last:
                if idx == last or decided:
                    problem = f"repeats {key}" if etype == "DECISION" else f"follows the DECISION of {key}"
                else:
                    problem = f"names {key}, but {pid!r} has decided point {last} already"
            elif etype == "DECISION" and idx not in kept.snapshots:
                problem = f"has no prior FEATURE_SNAPSHOT for {key}"
            elif etype == "DECISION" and not self.versions:
                problem = "has no VERSION_CHANGE before it"
            elif etype == "FEATURE_SNAPSHOT":
                points, due = kept.points, header.config.schedule.due_ts(idx)
                methods = tuple(map(_METHODS.get, value.provenance))
                if points and idx < points[-1]:
                    problem = f"names {key}, but {pid!r} has a snapshot of point {points[-1]} already"
                elif value.imputation_methods != methods:
                    i = next(i for i, method in enumerate(methods) if method != value.imputation_methods[i])
                    problem = (
                        f"imputation_methods[{i}]: expected {methods[i]!r} for tag {value.provenance[i]!r}, "
                        f"{_got(value.imputation_methods[i])}"
                    )
                elif value.assembled_ts != due:
                    problem = f"assembled_ts: expected {due}, the due time of point {idx}, {_got(value.assembled_ts)}"
            if problem is not None:
                raise StructuralAuditError(f"{etype} at seq {seq} {problem}")
        elif etype == "MODEL_UPDATE":
            return self.batch(value.participant_id, value.batch_seqs, seq) if _rows is None else _rows
        elif etype == "ERROR":
            if value.kind not in _ERROR_KINDS:
                raise StructuralAuditError(
                    f"ERROR at seq {seq} kind: expected one of {'/'.join(_ERROR_KINDS)}, {_got(value.kind)}"
                )
            idx = value.decision_index
            if idx is not None and not 0 <= idx < total:
                raise StructuralAuditError(f"ERROR at seq {seq} names decision {idx}, not in [0, {total})")
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
            pid, idx = value.participant_id, value.decision_index
            kept = self.participants.get(pid) or self.participants.setdefault(pid, Participant())
            replaced = kept.snapshots.get(idx)
            tags, old = value.provenance, () if replaced is None else replaced.provenance
            added, observed = len(tags) - len(old), tags.count("observed") - old.count("observed")
            for counts in self._counts(idx // self.header.config.schedule.points_per_day):
                counts.tags += added
                counts.observed += observed
            self.snapshots_seen += replaced is None  # a point leaves it only at or below the last decision
            kept.snapshots[idx] = value
            if kept.points and kept.points[-1] == idx:
                kept.seqs[-1] = record.seq
            else:
                kept.points.append(idx)
                kept.seqs.append(record.seq)
        elif etype == "DECISION":
            idx, kept = value.decision_index, self.participants[value.participant_id]  # snapshotted, so kept
            for counts in self._counts(idx // self.header.config.schedule.points_per_day):
                counts.decisions += 1
                counts.fallbacks += value.fallback
                counts.pi_sum.add(value.pi)
            kept.last_decided = idx
            kept.actions[idx] = value.action
            self.exception = None
        elif etype == "OUTCOME_OBSERVED":
            idx, kept = value.decision_index, self.participants[value.participant_id]
            self.outcomes_seen += 1
            kept.pending[record.seq] = (idx, value.reward)
            kept.pending_points.add(idx)
        elif etype == "MODEL_UPDATE":
            kept = self.participants[value.participant_id]
            for outcome_seq in value.batch_seqs:
                idx = kept.pending.pop(outcome_seq)[0]
                kept.pending_points.remove(idx)
                del kept.snapshots[idx], kept.actions[idx]
            for counts in self._counts(self.header.config.schedule.day(record.backend_ts)):
                counts.updates += 1
        elif etype == "ERROR":
            for counts in self._counts(self.header.config.schedule.day(record.backend_ts)):
                counts.errors += 1
                counts.update_failures += value.kind == "update_failure"
            if value.kind == "policy_exception":
                self.exception = value
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

    def batch(self, participant_id: str, batch_seqs, seq: int) -> list[Row]:
        """The rows of an update at ``seq`` consuming ``batch_seqs``; raises
        StructuralAuditError unless the seqs are non-empty, increase, and each
        is a pending earlier outcome of ``participant_id``."""
        if not batch_seqs:
            raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} has an empty batch_seqs")
        if any(a >= b for a, b in zip(batch_seqs, batch_seqs[1:])):
            raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} has non-increasing batch_seqs")
        kept, rows = self.participant(participant_id), []
        for outcome_seq in batch_seqs:
            outcome = kept.pending.get(outcome_seq)
            problem = None
            if outcome_seq >= seq:
                problem = f"references future seq {outcome_seq}"
            elif outcome is None and any(outcome_seq in other.pending for other in self.participants.values()):
                problem = f"has outcome seq {outcome_seq} of another participant"
            elif outcome is None:
                problem = f"references seq {outcome_seq}, which is not a pending OUTCOME_OBSERVED event"
            if problem is not None:
                raise StructuralAuditError(f"MODEL_UPDATE at seq {seq} {problem}")
            idx, reward = outcome  # decided, so snapshotted, when it came
            rows.append((kept.snapshots[idx], kept.actions[idx], reward))
        return rows

    def participant(self, participant_id: str) -> Participant:
        """The record of ``participant_id`` for reading: before its first
        snapshot, one empty record that every such participant shares, so
        nothing may write to what this returns (:meth:`commit` makes the
        record it writes to)."""
        return self.participants.get(participant_id, _UNSEEN)


# -- the runtime's derivations ----------------------------------------------------------


def decision_step(header: HeaderInfo, logic, state, snapshot, participant_id: str, decision_index: int) -> tuple:
    """The decision of a point, as ``(pi_raw, pi, seed, action,
    fallback_reason)``. The injection gate fails the point with probability
    ``policy_exception_prob``, drawn from the HEADER's deployment seed and
    the point; otherwise ``logic.action_probability`` gives ``(pi_raw, pi)``
    at ``state`` and ``snapshot``. Any exception of either makes it the
    uniform fallback, ``pi_raw = pi = 1/2``, with the reason ``Type:
    message``; a decision that is no fallback has the reason None. Then the
    point's seed, and the action its coin gives at ``pi``."""
    config = header.config
    try:
        exception_prob = config.injection.policy_exception_prob
        if exception_prob > 0.0:
            gate = SplitMix64(derive_seed(header.deployment_seed, "inject-policy", participant_id, decision_index))
            if gate.next_float() < exception_prob:
                raise InjectedFailure("injected policy exception")
        pi_raw, pi = logic.action_probability(state, snapshot, config.model)
        reason = None
    except Exception as exc:  # a missing snapshot or participant too, which the fold refuses
        pi_raw = pi = FALLBACK_PI
        reason = f"{type(exc).__name__}: {exc}"
    seed = derive_decision_seed(header.deployment_seed, participant_id, decision_index)
    return pi_raw, pi, seed, decide(pi, seed), reason


def update_step(logic, model: ModelConfig, state, participant_id: str, batch_seqs: tuple, rows: list[Row]):
    """The update of ``participant_id`` from ``state`` on the ``rows`` of its
    outcomes at ``batch_seqs``, as ``(payload, state)``: the
    :class:`UpdateInfo` of ``logic.update_posterior`` and the new state; or,
    if that raises any exception, an ``update_failure`` :class:`ErrorInfo`
    whose message is ``Type: message``, and ``state``."""
    try:
        new_state = logic.update_posterior(state, rows, model, last_update_seq=max(batch_seqs))
    except Exception as exc:
        return ErrorInfo("update_failure", f"{type(exc).__name__}: {exc}", participant_id), state
    post_state = canonical_serialize(new_state)
    return UpdateInfo(participant_id, batch_seqs, state.state_hash, new_state.state_hash, post_state), new_state
