"""The deployment loop: schedules decision points, ingests (possibly delayed)
observations, assembles provenance-tagged feature snapshots, makes decisions
with fallback protection, and runs batch update cycles.

The runtime holds no algorithm internals: it calls the pure policy functions
and writes everything it does to the ledger. A policy failure can therefore
never corrupt the ledger; it degrades to a uniform-random fallback decision,
which is itself logged like any other decision.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from . import events
from .errors import (
    ConfigurationError,
    InjectedFailure,
    IsolationError,
    StorageError,
    StructuralAuditError,
)
from .ledger import Ledger
from .policy import (
    DecisionRecord,
    FeatureSnapshot,
    ModelConfig,
    PosteriorState,
    action_probability,
    canonical_serialize,
    decide,
    derive_decision_seed,
    init_state,
    update_posterior,
)
from .rng import SplitMix64, derive_seed

MS_PER_DAY = 86_400_000
MS_PER_MINUTE = 60_000

FALLBACK_PI = 0.5  # 1/|A| for two actions


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
        if self.trial_days < 1:
            raise ConfigurationError("schedule.trial_days must be positive")
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


def schedule_decision_points(schedule: Schedule, day: int) -> list[tuple[int, int]]:
    """Module-level alias of :meth:`Schedule.decision_points`."""
    return schedule.decision_points(day)


@dataclass(frozen=True)
class FeatureSpec:
    """Names of the data features feeding the baseline and treatment vectors.

    Every entry is a named datum (the constant intercept included): an entry
    is `observed` exactly when a fresh datum for its name arrived in time.
    """

    baseline: tuple[str, ...] = ("intercept", "prior_outcome", "time_of_day")
    treatment: tuple[str, ...] = ("intercept", "prior_outcome", "engagement")

    def __post_init__(self):
        if not self.baseline or not self.treatment:
            raise ConfigurationError("features.baseline and features.treatment must be non-empty")

    @property
    def names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for name in self.baseline + self.treatment:
            seen.setdefault(name)
        return tuple(seen)


@dataclass(frozen=True)
class ImputationPolicy:
    """Carry-forward horizon (in decision points) and per-feature defaults."""

    horizon: int = 3
    defaults: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 0:
            raise ConfigurationError("imputation.horizon must be non-negative")
        object.__setattr__(
            self, "defaults", {k: float(v) for k, v in dict(self.defaults).items()}
        )

    def default_for(self, feature: str) -> float:
        if feature not in self.defaults:
            raise ConfigurationError(f"imputation.defaults missing feature {feature!r}")
        return self.defaults[feature]


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


class VersionRegistry:
    """Ordered record of which algorithm version was active from which seq."""

    def __init__(self):
        self.entries: list[tuple[str, int, str]] = []

    def activate(self, version_id: str, activation_seq: int, fingerprint: str) -> None:
        if any(v == version_id for v, _, _ in self.entries):
            raise ConfigurationError(f"version {version_id!r} already activated")
        if self.entries and activation_seq <= self.entries[-1][1]:
            raise ConfigurationError("activation seqs must be strictly increasing")
        self.entries.append((version_id, activation_seq, fingerprint))

    @property
    def current(self) -> str | None:
        return self.entries[-1][0] if self.entries else None


class Runtime:
    """Drives one stream: all participants share the ledger and the model
    configuration, while posterior states and data caches are per participant.
    """

    def __init__(
        self,
        ledger: Ledger,
        model_config: ModelConfig,
        schedule: Schedule,
        features: FeatureSpec,
        imputation: ImputationPolicy,
        injection: FailureInjectionSpec,
        deployment_seed: int,
        participants: list[str],
        decision_override=None,
    ):
        d_g, d_h = len(features.baseline), len(features.treatment)
        if (d_g, d_h) != (model_config.baseline_dim, model_config.treatment_dim):
            raise ConfigurationError(
                f"feature spec dims ({d_g}, {d_h}) do not match model config "
                f"({model_config.baseline_dim}, {model_config.treatment_dim})"
            )
        for name in features.names:
            imputation.default_for(name)  # fail fast on missing defaults
        self.ledger = ledger
        self.model_config = model_config
        self.schedule = schedule
        self.features = features
        self.imputation = imputation
        self.injection = injection
        self.deployment_seed = deployment_seed
        self.participants = list(participants)
        self.registry = VersionRegistry()
        # decision_override(participant_id, decision_index, snapshot) -> pi;
        # used by the twin for oracle baselines, never in real deployments.
        self.decision_override = decision_override

        self.states: dict[str, PosteriorState] = {
            pid: init_state(model_config) for pid in self.participants
        }
        # (participant, feature) -> [(device_ts, -seq, value)], kept sorted, so
        # the datum a snapshot uses is the last entry at or before its due time.
        self._data: dict[tuple[str, str], list[tuple[int, int, float]]] = {}
        self._snapshots: dict[tuple[str, int], tuple[int, FeatureSnapshot]] = {}
        self._decisions: dict[tuple[str, int], DecisionRecord] = {}
        self._pending_outcomes: dict[str, list[tuple[int, events.OutcomeInfo]]] = {
            pid: [] for pid in self.participants
        }
        self._due_cache = [
            self.schedule.due_ts(i) for i in range(self.schedule.total_points)
        ]

    # -- lifecycle -----------------------------------------------------------

    def start(self, header_config: dict, config_digest: str, fingerprint: str, backend_ts: int) -> None:
        """Write the header record and activate the configured version."""
        version_id = self.model_config.version_id
        self.ledger.append(
            "HEADER",
            events.header_payload(
                stream_id=self.ledger.stream_id,
                environment_profile=self.ledger.environment_profile,
                deployment_seed=self.deployment_seed,
                config=header_config,
                config_digest=config_digest,
            ),
            backend_ts=backend_ts,
            version_id=version_id,
        )
        self.register_version(version_id, fingerprint, backend_ts)

    def register_version(self, version_id: str, fingerprint: str, backend_ts: int) -> int:
        """Activate a new algorithm version; all later events carry it."""
        seq = self.ledger.next_seq()
        self.registry.activate(version_id, seq, fingerprint)
        previous = self.registry.entries[-2][0] if len(self.registry.entries) > 1 else None
        record = self.ledger.append(
            "VERSION_CHANGE",
            events.version_change_payload(version_id, fingerprint, previous),
            backend_ts=backend_ts,
            version_id=version_id,
        )
        return record.seq

    @property
    def version_id(self) -> str:
        current = self.registry.current
        if current is None:
            raise ConfigurationError("no version registered; call start() first")
        return current

    # -- ingestion -----------------------------------------------------------

    def _require_participant(self, participant_id: str) -> None:
        if participant_id not in self.states:
            raise ConfigurationError(f"unknown participant {participant_id!r}")

    def _window_index(self, device_ts: int) -> int:
        # Window j is (due(j-1), due(j)]; anything before due(0) is window 0
        # unless it precedes the trial start, which maps to window -1.
        if device_ts < self.schedule.trial_start_ts:
            return -1
        return bisect.bisect_left(self._due_cache, device_ts)

    def ingest_observation(
        self, participant_id: str, feature: str, value: float, device_ts: int, backend_ts: int
    ) -> int:
        """Append one DATA_INGESTED event and index it for assembly.

        Arrival after the snapshot that needed this datum never mutates that
        snapshot; the new event just references the superseded snapshot seq.
        """
        home = self._window_index(device_ts)
        superseded = None
        snap = self._snapshots.get((participant_id, home))
        if snap is not None:
            superseded = snap[0]
        record = self.ledger.append(
            "DATA_INGESTED",
            events.data_ingested_payload(
                participant_id, feature, value, device_ts, superseded
            ),
            backend_ts=backend_ts,
            device_ts=device_ts,
            version_id=self.version_id,
        )
        bisect.insort(
            self._data.setdefault((participant_id, feature), []),
            (device_ts, -record.seq, value),
        )
        return record.seq

    def ingest_outcome(
        self, participant_id: str, decision_index: int, reward: float, device_ts: int, backend_ts: int
    ) -> int:
        """Append one OUTCOME_OBSERVED event; consumed by a later update cycle."""
        self._require_participant(participant_id)
        record = self.ledger.append(
            "OUTCOME_OBSERVED",
            events.outcome_payload(participant_id, decision_index, reward, device_ts),
            backend_ts=backend_ts,
            device_ts=device_ts,
            version_id=self.version_id,
        )
        info = events.parse_outcome(record.payload)
        self._pending_outcomes[participant_id].append((record.seq, info))
        return record.seq

    # -- decision path ---------------------------------------------------------

    def assemble_features(self, participant_id: str, decision_index: int, backend_ts: int | None = None) -> FeatureSnapshot:
        """Build and log the immutable snapshot for one decision point.

        Missing data never blocks assembly: each feature resolves to its most
        recent datum (latest device_ts at or before the due time, lowest seq on
        a tie) when that falls within the current window (`observed`) or the
        carry-forward horizon (`imputed`, method "locf"), else to the
        configured default.
        """
        self._require_participant(participant_id)
        due = self.schedule.due_ts(decision_index)
        if backend_ts is None:
            backend_ts = due
        resolved: dict[str, tuple[float, str, str | None, int | None]] = {}
        after_due = (due, math.inf)  # sorts after every entry with device_ts <= due
        for name in self.features.names:
            data = self._data.get((participant_id, name), ())
            i = bisect.bisect_right(data, after_due)
            if i == 0:
                resolved[name] = (self.imputation.default_for(name), "default", None, None)
                continue
            device_ts, _, value = data[i - 1]
            age = decision_index - self._window_index(device_ts)
            if age == 0:
                resolved[name] = (value, "observed", None, device_ts)
            elif age <= self.imputation.horizon:
                resolved[name] = (value, "imputed", "locf", device_ts)
            else:
                resolved[name] = (self.imputation.default_for(name), "default", None, None)

        entries = [resolved[n] for n in self.features.baseline] + [
            resolved[n] for n in self.features.treatment
        ]
        snapshot = FeatureSnapshot(
            baseline=tuple(resolved[n][0] for n in self.features.baseline),
            treatment=tuple(resolved[n][0] for n in self.features.treatment),
            provenance=tuple(e[1] for e in entries),
            imputation_methods=tuple(e[2] for e in entries),
            source_device_ts=tuple(e[3] for e in entries),
            assembled_ts=due,
        )
        record = self.ledger.append(
            "FEATURE_SNAPSHOT",
            events.snapshot_payload(participant_id, decision_index, snapshot),
            backend_ts=backend_ts,
            version_id=self.version_id,
        )
        self._snapshots[(participant_id, decision_index)] = (record.seq, snapshot)
        return snapshot

    def make_decision(self, participant_id: str, decision_index: int, backend_ts: int | None = None) -> DecisionRecord:
        """Produce exactly one decision for a due decision point.

        Any policy or state error is converted to a uniform fallback decision
        (pi = 0.5) with the same seeded coin; only storage and isolation
        errors escape. A DECISION event is always appended.
        """
        self._require_participant(participant_id)
        key = (participant_id, decision_index)
        if key not in self._snapshots:
            raise StructuralAuditError(
                f"no FEATURE_SNAPSHOT for {participant_id} decision {decision_index}"
            )
        _, snapshot = self._snapshots[key]
        if backend_ts is None:
            backend_ts = self.schedule.due_ts(decision_index)
        seed = derive_decision_seed(self.deployment_seed, participant_id, decision_index)
        version_id = self.version_id

        fallback = False
        fallback_reason = None
        try:
            if self.injection.policy_exception_prob > 0.0:
                gate = SplitMix64(
                    derive_seed(self.deployment_seed, "inject-policy", participant_id, decision_index)
                )
                if gate.next_float() < self.injection.policy_exception_prob:
                    raise InjectedFailure("injected policy exception")
            if self.decision_override is not None:
                pi_raw = pi = float(
                    self.decision_override(participant_id, decision_index, snapshot)
                )
            else:
                state = self.states[participant_id]
                pi_raw, pi = action_probability(state, snapshot, self.model_config)
        except (StorageError, IsolationError):
            raise
        except Exception as exc:
            fallback = True
            fallback_reason = f"{type(exc).__name__}: {exc}"
            pi_raw = pi = FALLBACK_PI
            self.ledger.append(
                "ERROR",
                events.error_payload(
                    kind="policy_exception",
                    message=fallback_reason,
                    participant_id=participant_id,
                    decision_index=decision_index,
                ),
                backend_ts=backend_ts,
                version_id=version_id,
            )

        action = decide(pi, seed)
        record = DecisionRecord(
            participant_id=participant_id,
            decision_index=decision_index,
            pi_raw=pi_raw,
            pi=pi,
            seed=seed,
            action=action,
            fallback=fallback,
            fallback_reason=fallback_reason,
            version_id=version_id,
        )
        self.ledger.append(
            "DECISION",
            events.decision_payload(record),
            backend_ts=backend_ts,
            version_id=version_id,
        )
        self._decisions[key] = record
        return record

    # -- learning ---------------------------------------------------------------

    def run_update_cycle(self, participant_id: str, backend_ts: int) -> PosteriorState:
        """Consume every outcome that has arrived since the last cycle.

        With nothing to consume this is a no-op (no event). On update failure
        an ERROR event is appended, the previous state stays active, and the
        outcomes remain pending for the next cycle.
        """
        self._require_participant(participant_id)
        pending = self._pending_outcomes[participant_id]
        state = self.states[participant_id]
        if not pending:
            return state
        try:
            batch = []
            batch_seqs = []
            for seq, info in pending:
                snap = self._snapshots.get((participant_id, info.decision_index))
                dec = self._decisions.get((participant_id, info.decision_index))
                if snap is None or dec is None:
                    raise StructuralAuditError(
                        f"outcome at seq {seq} references decision "
                        f"{info.decision_index} with no snapshot/decision"
                    )
                batch.append((snap[1], dec.action, info.reward))
                batch_seqs.append(seq)
            new_state = update_posterior(
                state, batch, self.model_config, last_update_seq=max(batch_seqs)
            )
        except (StorageError, IsolationError):
            raise
        except Exception as exc:
            self.ledger.append(
                "ERROR",
                events.error_payload(
                    kind="update_failure",
                    message=f"{type(exc).__name__}: {exc}",
                    participant_id=participant_id,
                ),
                backend_ts=backend_ts,
                version_id=self.version_id,
            )
            return state

        self.ledger.append(
            "MODEL_UPDATE",
            events.update_payload(
                participant_id=participant_id,
                batch_seqs=batch_seqs,
                pre_state_hash=state.state_hash,
                post_state_hash=new_state.state_hash,
                post_state=canonical_serialize(new_state),
            ),
            backend_ts=backend_ts,
            version_id=self.version_id,
        )
        self.states[participant_id] = new_state
        self._pending_outcomes[participant_id] = []
        return new_state
