"""The deployment loop: schedules decision points, ingests (possibly delayed)
observations, assembles provenance-tagged feature snapshots, makes decisions
with fallback protection, and runs batch update cycles.

The runtime holds no algorithm internals: it calls the pure functions of the
policy logic it is given and writes everything it does to the ledger. A
policy failure can therefore never corrupt the ledger; it degrades to a
uniform-random fallback decision, which is itself logged like any other
decision.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from . import events, policy
from .errors import ConfigurationError, InjectedFailure
from .ledger import EventEnvelope, Ledger
from .policy import DecisionRecord, FeatureSnapshot, ModelConfig, PosteriorState
from .rng import SplitMix64, derive_seed

MS_PER_DAY = 86_400_000
MS_PER_MINUTE = 60_000
MAX_TRIAL_DAYS = 36_525  # a century; the monitor reports every day of a trial


def _parse_clock(text: str, where: str) -> int:
    """\"HH:MM\" -> milliseconds since local midnight."""
    try:
        hours, minutes = text.split(":")
        h, m = int(hours), int(minutes)
    except (ValueError, AttributeError):
        raise ConfigurationError(f"{where}: expected \"HH:MM\", got {text!r}") from None
    if not (0 <= h < 24 and 0 <= m < 60):
        raise ConfigurationError(f"{where}: {text!r} is not a valid time of day")
    return (h * 60 + m) * MS_PER_MINUTE


@dataclass(frozen=True)
class Schedule:
    """Daily decision and update timing for one trial."""

    decision_times: tuple[str, ...] = ("09:00", "18:00")
    update_time: str = "23:00"
    trial_days: int = 28
    trial_start_ts: int = 0

    def __post_init__(self):
        if not self.decision_times:
            raise ConfigurationError("schedule.decision_times must be non-empty")
        if not 1 <= self.trial_days <= MAX_TRIAL_DAYS:
            raise ConfigurationError(f"schedule.trial_days must be in [1, {MAX_TRIAL_DAYS}]")
        offsets = [
            _parse_clock(t, f"schedule.decision_times[{i}]")
            for i, t in enumerate(self.decision_times)
        ]
        if any(a >= b for a, b in zip(offsets, offsets[1:])):
            raise ConfigurationError("schedule.decision_times must be strictly increasing")
        update_offset = _parse_clock(self.update_time, "schedule.update_time")
        if update_offset in offsets:
            raise ConfigurationError("schedule.update_time must differ from decision_times")
        object.__setattr__(self, "_decision_offsets", tuple(offsets))
        object.__setattr__(self, "_update_offset", update_offset)

    @property
    def points_per_day(self) -> int:
        return len(self.decision_times)

    def due_ts(self, decision_index: int) -> int:
        day, slot = divmod(decision_index, self.points_per_day)
        return self.trial_start_ts + day * MS_PER_DAY + self._decision_offsets[slot]

    def update_ts(self, day: int) -> int:
        return self.trial_start_ts + day * MS_PER_DAY + self._update_offset

    def decision_points(self, day: int) -> list[tuple[int, int]]:
        """All (decision_index, due_ts) for one trial day; indices are global
        per participant: day * k + slot."""
        if not (0 <= day < self.trial_days):
            raise ConfigurationError(f"day {day} outside trial range [0, {self.trial_days})")
        k = self.points_per_day
        return [(day * k + slot, self.due_ts(day * k + slot)) for slot in range(k)]

    @property
    def total_points(self) -> int:
        return self.trial_days * self.points_per_day


@dataclass(frozen=True)
class FeatureSpec:
    """Names of the data features feeding the baseline and treatment vectors.

    Every entry is a named datum (the constant intercept included): an entry
    is `observed` exactly when a fresh datum for its name arrived in time.
    """

    baseline: tuple[str, ...] = ("intercept", "prior_outcome", "time_of_day")
    treatment: tuple[str, ...] = ("intercept", "prior_outcome", "engagement")
    # Every feature name once, in first-use order.
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.baseline or not self.treatment:
            raise ConfigurationError("features.baseline and features.treatment must be non-empty")
        object.__setattr__(self, "names", tuple(dict.fromkeys(self.baseline + self.treatment)))


@dataclass(frozen=True)
class ImputationPolicy:
    """Carry-forward horizon (in decision points) and per-feature defaults."""

    horizon: int = 3
    defaults: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 0:
            raise ConfigurationError("imputation.horizon must be non-negative")
        defaults = {k: float(v) for k, v in dict(self.defaults).items()}
        for name, value in defaults.items():
            # A snapshot holding a NaN or infinite default fails every later update.
            if not math.isfinite(value):
                raise ConfigurationError(f"imputation.defaults.{name} must be finite, got {value!r}")
        object.__setattr__(self, "defaults", defaults)

    def default_for(self, feature: str) -> float:
        return self.defaults[feature]  # check_features gives every feature of a run one


@dataclass(frozen=True)
class FailureInjectionSpec:
    """Synthetic fault probabilities for QA runs; None defers to the twin
    environment's own missingness/latency parameters."""

    policy_exception_prob: float = 0.0
    data_loss_prob: float | None = None
    delay_geometric_p: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.policy_exception_prob <= 1.0):
            raise ConfigurationError("injection.policy_exception_prob must be in [0, 1]")
        if self.data_loss_prob is not None and not (0.0 <= self.data_loss_prob <= 1.0):
            raise ConfigurationError("injection.data_loss_prob must be in [0, 1]")
        if self.delay_geometric_p is not None and not (0.0 < self.delay_geometric_p <= 1.0):
            raise ConfigurationError("injection.delay_geometric_p must be in (0, 1]")


def check_features(model: ModelConfig, features: FeatureSpec, imputation: ImputationPolicy) -> None:
    """ConfigurationError unless every feature has an imputation default and
    the feature lists are as long as the model's dimensions: what a run's
    sections must agree on, checked once for a config
    (:func:`ledgerloop.config.config_from_dict`) and once for a HEADER
    (:class:`ledgerloop.events.HeaderInfo`)."""
    for name in features.names:
        if name not in imputation.defaults:
            raise ConfigurationError(f"imputation.defaults.{name}: missing required field")
    d_g, d_h = len(features.baseline), len(features.treatment)
    if (d_g, d_h) != (model.baseline_dim, model.treatment_dim):
        raise ConfigurationError(
            f"feature spec dims ({d_g}, {d_h}) do not match model config "
            f"({model.baseline_dim}, {model.treatment_dim})"
        )


class Runtime:
    """Drives one stream from its HEADER (``header``, a
    :class:`ledgerloop.events.HeaderInfo`), the run's one configuration:
    :meth:`start` logs exactly that header, and the model, schedule,
    features, imputation, failure injection, deployment seed and
    participants the runtime works with are the header's. All participants
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
        self.states: dict[str, PosteriorState] = dict.fromkeys(header.participants, policy.init_state(header.model))
        # (participant, feature) -> [(device_ts, -seq, value)], kept sorted, so
        # the datum a snapshot uses is the last entry at or before its due time.
        self._data: dict[tuple[str, str], list[tuple[int, int, float]]] = {}
        schedule = header.schedule
        self._due_cache = [schedule.due_ts(i) for i in range(schedule.total_points)]

    def _check(self, value, seq: int, rows=None) -> None:
        """Check, with the fold's rules (:meth:`events.StreamIndex.check`),
        the record that ``value`` would be at ``seq``; ``rows``: as
        :meth:`_log` takes them."""
        ledger = self.ledger
        event_type = events._EVENT_TYPES.get(type(value))
        self.index.check(seq, ledger.stream_id, ledger.environment_profile, event_type, value, rows)

    def _log(self, value, backend_ts: int, version_id: str, device_ts: int | None = None, rows=None) -> EventEnvelope:
        """Append ``value`` as the payload of a record of its event type once
        the fold's rules pass that record (:meth:`_check`), then commit it to
        the index: a record the fold refuses is never written. ``rows``: an
        update's, as :meth:`events.StreamIndex.batch` gave them for this
        record, so they are not built again."""
        self._check(value, self.index.size, rows)
        record = self.ledger.append(value, backend_ts, version_id, device_ts)
        self.index.commit(record)
        return record

    # -- lifecycle -----------------------------------------------------------

    def start(self, backend_ts: int) -> None:
        """Write the HEADER record, :attr:`header`, and activate its model's version."""
        version_id = self.header.model.version_id
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

    def _window_index(self, device_ts: int) -> int:
        # Window j is (due(j-1), due(j)]; anything before due(0) is window 0
        # unless it precedes the trial start, which maps to window -1.
        if device_ts < self.header.schedule.trial_start_ts:
            return -1
        return bisect.bisect_left(self._due_cache, device_ts)

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
        superseded = self.index.snapshot_seqs.get((participant_id, self._window_index(device_ts)))
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
        header = self.header
        features, imputation = header.features, header.imputation
        due = header.schedule.due_ts(decision_index)
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
            age = decision_index - self._window_index(device_ts)
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
        """Produce exactly one decision for a due decision point.

        Any policy or state error is converted to a uniform fallback decision
        (pi = 0.5) with the same seeded coin; only storage errors escape.
        A DECISION event is always appended, once per point: a second
        decision, or one with no snapshot, is refused by the fold before
        anything is logged, the fallback's ERROR included.
        """
        header = self.header
        snapshot = self.index.snapshots.get((participant_id, decision_index))
        if backend_ts is None:
            backend_ts = header.schedule.due_ts(decision_index)
        seed = policy.derive_decision_seed(header.deployment_seed, participant_id, decision_index)
        version_id = self.version_id

        fallback_reason = None
        try:
            exception_prob = header.injection.policy_exception_prob
            if exception_prob > 0.0:
                gate = SplitMix64(
                    derive_seed(header.deployment_seed, "inject-policy", participant_id, decision_index)
                )
                if gate.next_float() < exception_prob:
                    raise InjectedFailure("injected policy exception")
            state = self.states[participant_id]
            pi_raw, pi = self.logic.action_probability(state, snapshot, header.model)
        except Exception as exc:  # a missing snapshot or participant too, which the fold refuses below
            pi_raw = pi = policy.FALLBACK_PI
            fallback_reason = f"{type(exc).__name__}: {exc}"

        record = DecisionRecord(
            participant_id=participant_id,
            decision_index=decision_index,
            pi_raw=pi_raw,
            pi=pi,
            seed=seed,
            action=policy.decide(pi, seed),
            fallback=fallback_reason is not None,
            fallback_reason=fallback_reason,
            version_id=version_id,
        )
        if record.fallback:
            # The DECISION is checked before its ERROR is written, so a refused decision logs neither.
            self._check(record, self.index.size + 1)
            error = events.ErrorInfo("policy_exception", fallback_reason, participant_id, decision_index)
            self._log(error, backend_ts=backend_ts, version_id=version_id)
        self._log(record, backend_ts=backend_ts, version_id=version_id)
        return record

    # -- learning ---------------------------------------------------------------

    def run_update_cycle(self, participant_id: str, backend_ts: int) -> PosteriorState:
        """Consume every outcome that has arrived since the last cycle.

        With nothing to consume this is a no-op (no event), but for a
        participant the HEADER lacks, which the fold's rule refuses as it
        would the update. On update failure an ERROR event is appended, the
        previous state stays active, and the outcomes remain pending for the
        next cycle.
        """
        batch_seqs = tuple(self.index.pending.get(participant_id, ()))
        if not batch_seqs:
            self.index.check_participant(self.index.size, "MODEL_UPDATE", participant_id)
            return self.states[participant_id]
        state = self.states[participant_id]
        try:
            batch = self.index.batch(participant_id, batch_seqs, len(self.ledger))
            new_state = self.logic.update_posterior(
                state, batch, self.header.model, last_update_seq=max(batch_seqs)
            )
        except Exception as exc:
            self._log(
                events.ErrorInfo(
                    kind="update_failure",
                    message=f"{type(exc).__name__}: {exc}",
                    participant_id=participant_id,
                ),
                backend_ts=backend_ts,
                version_id=self.version_id,
            )
            return state

        info = events.UpdateInfo(
            participant_id, batch_seqs, state.state_hash, new_state.state_hash,
            policy.canonical_serialize(new_state),
        )
        self._log(info, backend_ts, self.version_id, rows=batch)
        self.states[participant_id] = new_state
        return new_state
