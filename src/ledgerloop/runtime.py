"""The deployment loop: ingests (possibly delayed) observations and
outcomes, assembles provenance-tagged feature snapshots, makes decisions
with fallback protection, and runs batch update cycles, each when its
caller asks (the digital twin schedules them).

The runtime holds no algorithm internals: a decision and an update are
:func:`ledgerloop.events.decision_step` and :func:`~ledgerloop.events.update_step`
of the policy logic it is given, the steps replay re-runs, and it writes
everything it does to the ledger. A policy failure can therefore never
corrupt the ledger; it degrades to a uniform-random fallback decision, or to
a failed update, each logged like any other record.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

from . import events, policy
from .errors import ConfigurationError
from .ledger import EventEnvelope, Ledger
from .policy import DecisionRecord, FeatureSnapshot, PosteriorState


class Runtime:
    """Drives one stream from its HEADER (``header``, a
    :class:`ledgerloop.events.HeaderInfo`), the run's one configuration:
    :meth:`start` logs exactly that header, and the deployment seed and
    the model, schedule, features, imputation, failure injection and
    participants of its config are those the runtime works with. All participants
    share the ledger and the policy logic (a
    ``ledgerloop.replay.PolicyLogic``, whose fingerprint every
    VERSION_CHANGE records), while posterior states and data caches are per
    participant. Every record is checked by the fold's rules before it is
    written, a call that names a participant the HEADER lacks included.
    """

    def __init__(self, ledger: Ledger, header: events.HeaderInfo, logic):
        self.ledger = ledger
        self.header = header
        self.logic = logic
        # The fold of every record the runtime appends: it checks each one
        # before it is written and commits it after.
        self.index = events.StreamIndex()

        # Every participant starts from the one prior, an immutable state.
        config = header.config
        self.states: dict[str, PosteriorState] = dict.fromkeys(config.participants, policy.init_state(config.model))
        # (participant, feature) -> [(device_ts, -seq, value)], kept sorted, so
        # the datum a snapshot uses is the last entry at or before its due time.
        self._data: dict[tuple[str, str], list[tuple[int, int, float]]] = {}

    def _check(self, value, seq: int, device_ts: int | None = None, rows=None) -> None:
        """Check, with the fold's rules (:meth:`events.StreamIndex.check`),
        the record that ``value`` would be at ``seq``, stamped with
        ``device_ts``; ``rows``: as :meth:`_log` takes them."""
        ledger = self.ledger
        event_type = events._EVENT_TYPES.get(type(value))
        self.index.check(seq, ledger.stream_id, ledger.environment_profile, device_ts, event_type, value, rows)

    def _log(self, value, backend_ts: int, version_id: str, device_ts: int | None = None, rows=None) -> EventEnvelope:
        """Append ``value`` as the payload of a record of its event type once
        the fold's rules pass that record (:meth:`_check`), then commit it to
        the index: a record the fold refuses is never written. ``rows``: an
        update's, as :meth:`events.StreamIndex.batch` gave them for this
        record, so they are not built again."""
        self._check(value, self.index.size, device_ts, rows)
        record = self.ledger.append(value, backend_ts, version_id, device_ts)
        self.index.commit(record)
        return record

    # -- lifecycle -----------------------------------------------------------

    def start(self, backend_ts: int) -> None:
        """Write the HEADER record, :attr:`header`, and activate its model's version."""
        version_id = self.header.config.model.version_id
        self._log(self.header, backend_ts=backend_ts, version_id=version_id)
        self.register_version(version_id, backend_ts)

    def register_version(self, version_id: str, backend_ts: int) -> int:
        """Activate a new algorithm version; all later events carry it. A
        version activated before, or one before the HEADER, is refused by the
        fold before anything is logged."""
        versions = self.index.versions
        previous = versions[-1][1] if versions else None
        record = self._log(
            events.VersionInfo(version_id, self.logic.fingerprint, previous),
            backend_ts=backend_ts,
            version_id=version_id,
        )
        return record.seq

    @property
    def version_id(self) -> str:
        if not self.index.versions:
            raise ConfigurationError("no version registered; call start() first")
        return self.index.versions[-1][1]

    # -- ingestion -----------------------------------------------------------

    def ingest_observation(
        self, participant_id: str, feature: str, value: float, device_ts: int, backend_ts: int
    ) -> int:
        """Append one DATA_INGESTED event and index it for assembly.

        Arrival after the snapshot that needed this datum never mutates that
        snapshot; the new event just references the superseded snapshot seq.
        A NaN or infinite value is refused before anything is logged: a
        snapshot holding it would fail every later update cycle of the
        participant.
        """
        value = float(value)  # the payload holds a float, whatever number came in
        if not math.isfinite(value):
            raise ConfigurationError(f"{feature} value {value!r} of {participant_id} is not finite")
        window = self.header.config.schedule.window(device_ts)
        superseded = self.index.participant(participant_id).snapshot_seq(window)
        record = self._log(
            events.DatumInfo(participant_id, feature, value, device_ts, superseded),
            backend_ts, self.version_id, device_ts,
        )
        bisect.insort(
            self._data.setdefault((participant_id, feature), []),
            (device_ts, -record.seq, value),
        )
        return record.seq

    def ingest_outcome(
        self, participant_id: str, decision_index: int, reward: float, device_ts: int, backend_ts: int
    ) -> int:
        """Append one OUTCOME_OBSERVED event; consumed by a later update cycle.

        A NaN or infinite reward is refused before anything is logged: left
        pending, it would fail every later cycle of the participant. An
        outcome of a point that has no decision, or already has its outcome,
        is refused by the fold before anything is logged.
        """
        reward = float(reward)
        if not math.isfinite(reward):
            raise ConfigurationError(f"reward {reward!r} for {participant_id} decision {decision_index} is not finite")
        record = self._log(
            events.OutcomeInfo(participant_id, decision_index, reward, device_ts),
            backend_ts=backend_ts,
            device_ts=device_ts,
            version_id=self.version_id,
        )
        return record.seq

    # -- decision path ---------------------------------------------------------

    def assemble_features(self, participant_id: str, decision_index: int, backend_ts: int | None = None) -> FeatureSnapshot:
        """Build and log the immutable snapshot for one decision point.

        Missing data never blocks assembly: each feature resolves to its most
        recent datum (latest device_ts at or before the due time, lowest seq on
        a tie) when that falls within the current window (`observed`) or the
        carry-forward horizon (`imputed`, method "locf"), else to the
        configured default. A point that has its decision keeps its
        snapshot: a new one is refused by the fold before anything is logged.
        """
        config = self.header.config
        features, imputation, schedule = config.features, config.imputation, config.schedule
        due = schedule.due_ts(decision_index)
        if backend_ts is None:
            backend_ts = due
        resolved: dict[str, tuple[float, str, str | None, int | None]] = {}
        after_due = (due, math.inf)  # sorts after every entry with device_ts <= due
        for name in features.names:
            data = self._data.get((participant_id, name), ())
            i = bisect.bisect_right(data, after_due)
            if i == 0:
                resolved[name] = (imputation.default_for(name), "default", None, None)
                continue
            device_ts, _, value = data[i - 1]
            age = decision_index - schedule.window(device_ts)
            if age == 0:
                resolved[name] = (value, "observed", None, device_ts)
            elif age <= imputation.horizon:
                resolved[name] = (value, "imputed", "locf", device_ts)
            else:
                resolved[name] = (imputation.default_for(name), "default", None, None)

        entries = [resolved[n] for n in features.baseline] + [resolved[n] for n in features.treatment]
        snapshot = events.SnapshotInfo(
            baseline=tuple([resolved[n][0] for n in features.baseline]),
            treatment=tuple([resolved[n][0] for n in features.treatment]),
            provenance=tuple([e[1] for e in entries]),
            imputation_methods=tuple([e[2] for e in entries]),
            source_device_ts=tuple([e[3] for e in entries]),
            assembled_ts=due,
            participant_id=participant_id,
            decision_index=decision_index,
        )
        self._log(snapshot, backend_ts=backend_ts, version_id=self.version_id)
        return snapshot

    def make_decision(self, participant_id: str, decision_index: int, backend_ts: int | None = None) -> DecisionRecord:
        """Produce exactly one decision for a due decision point, the one
        :func:`events.decision_step` gives: an injected or policy failure is
        a uniform fallback decision (pi = 0.5) with the same seeded coin;
        only storage errors escape. A DECISION event is always appended,
        once per point, a fallback's with its ERROR in one write: a second
        decision, or one with no snapshot, is refused by the fold before
        anything is logged, the fallback's ERROR included.
        """
        snapshot = self.index.participant(participant_id).snapshots.get(decision_index)
        if backend_ts is None:
            backend_ts = self.header.config.schedule.due_ts(decision_index)
        version_id = self.version_id
        pi_raw, pi, seed, action, fallback_reason = events.decision_step(
            self.header, self.logic, self.states.get(participant_id), snapshot, participant_id, decision_index
        )
        record = DecisionRecord(
            participant_id, decision_index, pi_raw, pi, seed, action, fallback_reason is not None, fallback_reason,
            version_id,
        )
        if record.fallback:
            # The DECISION is checked before its ERROR, as no fallback, which every rule but the one that
            # pairs it with its ERROR treats alike; then both go to the file in one write. So a refused
            # decision logs neither, a failed write logs neither, and a reader never sees the ERROR alone.
            error = events.ErrorInfo("policy_exception", fallback_reason, participant_id, decision_index)
            self._check(dataclasses.replace(record, fallback=False, fallback_reason=None), self.index.size + 1)
            self._check(error, self.index.size)
            for logged in self.ledger.append_together((error, record), backend_ts, version_id):
                self.index.commit(logged)
        else:
            self._log(record, backend_ts=backend_ts, version_id=version_id)
        return record

    # -- learning ---------------------------------------------------------------

    def run_update_cycle(self, participant_id: str, backend_ts: int) -> PosteriorState:
        """Consume every outcome that has arrived since the last cycle, with
        :func:`events.update_step`.

        With nothing to consume this is a no-op (no event), but for a
        participant the HEADER lacks, which the fold's rule refuses as it
        would the update. On update failure an ERROR event is appended, the
        previous state stays active, and the outcomes remain pending for the
        next cycle.
        """
        batch_seqs = tuple(self.index.participant(participant_id).pending)
        if not batch_seqs:
            self.index.check_participant(self.index.size, "MODEL_UPDATE", participant_id)
            return self.states[participant_id]
        rows = self.index.batch(participant_id, batch_seqs, self.index.size)
        value, state = events.update_step(
            self.logic, self.header.config.model, self.states[participant_id], participant_id, batch_seqs, rows
        )
        self._log(value, backend_ts, self.version_id, rows=rows)
        self.states[participant_id] = state
        return state
