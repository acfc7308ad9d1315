"""Digital-twin testbed: generative participants, environment grids, full
trial simulation through the real runtime, candidate evaluation, and tuning.

The twin never shortcuts the deployment path: it streams synthetic data into
the same Runtime/Ledger machinery a deployment would use, so every simulated
trial yields a standard, replayable ledger. Participant dynamics follow a
linear-Gaussian outcome model with an AR(1) engagement state that responds to
interventions, which closes the action -> behavior -> data feedback loop.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import events
from .config import RunConfig, config_digest, header_config_dict
from .errors import ConfigurationError
from .ledger import Ledger, canonical_json_bytes, decode_float, encode_float
from .replay import default_logic
from .rng import SplitMix64, derive_seed
from .runtime import MS_PER_DAY, MS_PER_MINUTE, FeatureSpec, Runtime

CONTEXT_LEAD_MS = MS_PER_MINUTE  # context measured one minute before the decision
OUTCOME_LAG_MS = 30 * MS_PER_MINUTE  # outcome observed half an hour after
ARRIVAL_EPSILON_MS = 1000  # delayed data lands just after a later decision


@dataclass(frozen=True)
class EnvironmentSpec:
    """Generative parameters of one simulated deployment environment."""

    effect_mean: tuple[float, ...] = (0.5, 0.0, 0.0)
    effect_sd: float = 0.0
    baseline_mean: tuple[float, ...] = (0.2, 0.0, 0.0)
    baseline_sd: float = 0.0
    drift: float = 0.0
    outcome_noise_sd: float = 1.0
    engagement_persistence: float = 0.5
    action_engagement_boost: float = 0.2
    engagement_noise_sd: float = 0.1
    miss_prob: float = 0.0
    delay_geometric_p: float = 1.0
    n_participants: int = 20
    n_days: int = 28
    label: str = "env"

    def __post_init__(self):
        object.__setattr__(self, "effect_mean", tuple(float(v) for v in self.effect_mean))
        object.__setattr__(self, "baseline_mean", tuple(float(v) for v in self.baseline_mean))
        if self.effect_sd < 0 or self.baseline_sd < 0 or self.engagement_noise_sd < 0:
            raise ConfigurationError("environment sd parameters must be non-negative")
        if self.outcome_noise_sd < 0:
            raise ConfigurationError("environment.outcome_noise_sd must be non-negative")
        if not (0.0 <= self.engagement_persistence < 1.0):
            raise ConfigurationError("environment.engagement_persistence must be in [0, 1)")
        if not (0.0 <= self.miss_prob <= 1.0):
            raise ConfigurationError("environment.miss_prob must be in [0, 1]")
        if not (0.0 < self.delay_geometric_p <= 1.0):
            raise ConfigurationError("environment.delay_geometric_p must be in (0, 1]")
        if self.n_participants < 1 or self.n_days < 1:
            raise ConfigurationError("environment sizes must be positive")


_ENV_FLOAT_FIELDS = (
    "effect_sd", "baseline_sd", "drift", "outcome_noise_sd",
    "engagement_persistence", "action_engagement_boost", "engagement_noise_sd",
    "miss_prob", "delay_geometric_p",
)
_ENV_VECTOR_FIELDS = ("effect_mean", "baseline_mean")
_ENV_INT_FIELDS = ("n_participants", "n_days")


def environment_from_dict(raw: dict, label: str = "env") -> EnvironmentSpec:
    if not isinstance(raw, dict):
        raise ConfigurationError("environment: expected a mapping")
    kwargs: dict = {"label": raw.get("label", label)}
    for name in _ENV_VECTOR_FIELDS:
        if name in raw:
            kwargs[name] = tuple(float(v) for v in raw[name])
    for name in _ENV_FLOAT_FIELDS:
        if name in raw:
            value = raw[name]
            kwargs[name] = decode_float(value) if isinstance(value, str) else float(value)
    for name in _ENV_INT_FIELDS:
        if name in raw:
            kwargs[name] = int(raw[name])
    unknown = set(raw) - set(_ENV_VECTOR_FIELDS) - set(_ENV_FLOAT_FIELDS) - set(_ENV_INT_FIELDS) - {"label"}
    if unknown:
        raise ConfigurationError(f"environment.{sorted(unknown)[0]}: unknown field")
    return EnvironmentSpec(**kwargs)


def environment_canonical(env: EnvironmentSpec) -> dict:
    out: dict = {"label": env.label}
    for name in _ENV_VECTOR_FIELDS:
        out[name] = [encode_float(v) for v in getattr(env, name)]
    for name in _ENV_FLOAT_FIELDS:
        out[name] = encode_float(getattr(env, name))
    for name in _ENV_INT_FIELDS:
        out[name] = getattr(env, name)
    return out


def build_environment_grid(
    base: EnvironmentSpec, axes: dict[str, list]
) -> list[EnvironmentSpec]:
    """Cartesian product of axis levels over EnvironmentSpec fields.

    Axes iterate in EnvironmentSpec field declaration order regardless of the
    mapping's order; levels keep their given order. Fields without an axis
    stay at the base value.
    """
    known = [f.name for f in dataclasses.fields(EnvironmentSpec) if f.name != "label"]
    for name, levels in axes.items():
        if name not in known:
            raise ConfigurationError(f"grid.{name}: unknown environment field")
        if not isinstance(levels, (list, tuple)) or len(levels) == 0:
            raise ConfigurationError(f"grid.{name}: axis must be a non-empty list")
    ordered = [name for name in known if name in axes]
    level_lists = [list(axes[name]) for name in ordered]
    grid = []
    for i, combo in enumerate(itertools.product(*level_lists)):
        overrides = dict(zip(ordered, combo))
        for vec in _ENV_VECTOR_FIELDS:
            if vec in overrides:
                overrides[vec] = tuple(float(v) for v in overrides[vec])
        grid.append(dataclasses.replace(base, label=f"env{i:03d}", **overrides))
    return grid


@dataclass(frozen=True)
class ParticipantTwin:
    """Realized generative state of one simulated participant.

    Weights are fixed for life; engagement, prior outcome, and the RNG
    substream cursors evolve only through :func:`step_participant`.
    """

    participant_id: str
    b: tuple[float, ...]
    theta: tuple[float, ...]
    engagement: float = 0.0
    prior_outcome: float = 0.0
    t: int = 0
    noise_state: int = 0
    engage_state: int = 0


def realize_participant(
    env: EnvironmentSpec, master_seed: int, participant_id: str, d_g: int, d_h: int
) -> ParticipantTwin:
    """Draw one participant's weights from the environment's population."""
    if len(env.baseline_mean) != d_g or len(env.effect_mean) != d_h:
        raise ConfigurationError(
            f"environment vectors ({len(env.baseline_mean)}, {len(env.effect_mean)}) "
            f"do not match feature dims ({d_g}, {d_h})"
        )
    stream = SplitMix64(derive_seed(master_seed, "twin-realize", participant_id))
    b = tuple(m + env.baseline_sd * stream.next_gauss() for m in env.baseline_mean)
    theta = tuple(m + env.effect_sd * stream.next_gauss() for m in env.effect_mean)
    return ParticipantTwin(
        participant_id=participant_id,
        b=b,
        theta=theta,
        noise_state=derive_seed(master_seed, "twin-noise", participant_id),
        engage_state=derive_seed(master_seed, "twin-engage", participant_id),
    )


def twin_context(twin: ParticipantTwin, t: int, points_per_day: int) -> dict[str, float]:
    """True context values at decision point t (before any action)."""
    k = points_per_day
    slot = t % k
    return {
        "intercept": 1.0,
        "prior_outcome": twin.prior_outcome,
        "time_of_day": slot / (k - 1) if k > 1 else 0.0,
        "engagement": twin.engagement,
    }


def step_participant(
    twin: ParticipantTwin,
    env: EnvironmentSpec,
    t: int,
    action: int,
    features: FeatureSpec | None = None,
    points_per_day: int = 2,
) -> tuple[ParticipantTwin, float, dict[str, float]]:
    """Advance one participant through one decision point.

    The outcome is linear in the true context with the action adding the
    participant's treatment effect; engagement follows an AR(1) recurrence
    nudged by the action. Draw order is fixed: outcome noise, then engagement
    noise, one Gaussian each, every step.
    """
    if features is None:
        features = FeatureSpec()
    context = twin_context(twin, t, points_per_day)
    g = [context[name] for name in features.baseline]
    h = [context[name] for name in features.treatment]
    # Drift shifts the first baseline weight linearly in t.
    b_eff = list(twin.b)
    b_eff[0] = b_eff[0] + env.drift * t

    noise = SplitMix64(twin.noise_state)
    eps = noise.next_gauss()
    y = (
        math.fsum(gv * bv for gv, bv in zip(g, b_eff))
        + action * math.fsum(hv * tv for hv, tv in zip(h, twin.theta))
        + env.outcome_noise_sd * eps
    )

    engage = SplitMix64(twin.engage_state)
    eta = engage.next_gauss()
    e_next = (
        env.engagement_persistence * twin.engagement
        + env.action_engagement_boost * action
        + env.engagement_noise_sd * eta
    )
    e_next = min(1.0, max(0.0, e_next))

    next_twin = dataclasses.replace(
        twin,
        engagement=e_next,
        prior_outcome=y,
        t=t + 1,
        noise_state=noise.state,
        engage_state=engage.state,
    )
    return next_twin, y, context


def true_effect(twin: ParticipantTwin, context: dict[str, float], features: FeatureSpec) -> float:
    """Ground-truth treatment effect h(s)'theta_i for the current context."""
    return math.fsum(context[name] * tv for name, tv in zip(features.treatment, twin.theta))


@dataclass
class TrialTruth:
    """What the twin knows and the ledger does not: realized parameters,
    true effects, and realized outcomes."""

    env: EnvironmentSpec
    participants: dict[str, ParticipantTwin] = field(default_factory=dict)
    deltas: dict[tuple[str, int], float] = field(default_factory=dict)
    outcomes: dict[tuple[str, int], float] = field(default_factory=dict)


@dataclass
class TrialResult:
    ledger: Ledger
    truth: TrialTruth
    env: EnvironmentSpec
    candidate_label: str
    master_seed: int


def run_trial(
    env: EnvironmentSpec,
    config: RunConfig,
    master_seed: int,
    out_path: str | Path | None = None,
    candidate_label: str = "candidate",
    policy_kind: str = "bandit",
    fsync: bool = False,
    participant_ids: list[str] | None = None,
) -> TrialResult:
    """Simulate one full trial by streaming twin data through the runtime.

    Identical (env, config, master_seed) produce byte-identical ledgers. The
    environment's missingness/latency apply to every datum at ingestion; the
    config's failure-injection spec can override them and adds policy
    exceptions. ``policy_kind`` "oracle" replaces the bandit probability with
    the ground-truth best action (evaluation baseline only; oracle ledgers
    are not replayable because their decisions do not follow the policy).
    """
    if policy_kind not in ("bandit", "oracle"):
        raise ConfigurationError(f"unknown policy_kind {policy_kind!r}")
    if config.version_switch is not None and config.version_switch.day >= env.n_days:
        raise ConfigurationError(
            "version_switch.day: must fall inside the trial "
            f"(day {config.version_switch.day}, trial has {env.n_days} days)"
        )
    model = config.model
    features = config.features
    d_g, d_h = model.baseline_dim, model.treatment_dim
    if len(env.baseline_mean) != d_g or len(env.effect_mean) != d_h:
        raise ConfigurationError(
            "environment vector lengths do not match model dimensions"
        )

    schedule = dataclasses.replace(config.schedule, trial_days=env.n_days)
    if participant_ids is None:
        participants = [f"p{i:03d}" for i in range(env.n_participants)]
    else:
        if len(participant_ids) != env.n_participants:
            raise ConfigurationError("participant_ids must match environment.n_participants")
        participants = list(participant_ids)
    deployment_seed = (
        config.deployment_seed
        if config.deployment_seed is not None
        else derive_seed(master_seed, "deployment")
    )
    stream_id = config.stream_id or f"{env.label}-{candidate_label}-seed{master_seed}"

    truth = TrialTruth(env=env)
    oracle_pi: dict[tuple[str, int], float] = {}

    override = None
    if policy_kind == "oracle":
        def override(pid: str, idx: int, _snapshot) -> float:
            return oracle_pi[(pid, idx)]

    ledger = Ledger(
        stream_id=stream_id,
        environment_profile=config.environment_profile,
        path=out_path,
        fsync=fsync,
    )
    runtime = Runtime(
        ledger=ledger,
        model_config=model,
        schedule=schedule,
        features=features,
        imputation=config.imputation,
        injection=config.injection,
        deployment_seed=deployment_seed,
        participants=participants,
        decision_override=override,
    )

    run_config = dataclasses.replace(config, schedule=schedule)
    header = header_config_dict(run_config, participants, environment_canonical(env))
    runtime.start(
        header_config=header,
        config_digest=config_digest(header),
        fingerprint=default_logic().fingerprint,
        backend_ts=schedule.trial_start_ts,
    )

    twins = {
        pid: realize_participant(env, master_seed, pid, d_g, d_h) for pid in participants
    }
    miss_streams = {
        pid: SplitMix64(derive_seed(master_seed, "twin-miss", pid)) for pid in participants
    }
    loss_prob = (
        config.injection.data_loss_prob
        if config.injection.data_loss_prob is not None
        else env.miss_prob
    )
    delay_p = (
        config.injection.delay_geometric_p
        if config.injection.delay_geometric_p is not None
        else env.delay_geometric_p
    )

    k = schedule.points_per_day
    total_points = schedule.total_points
    trial_end_ts = schedule.trial_start_ts + env.n_days * MS_PER_DAY

    # Pending arrivals, a heap of (arrival_ts, insertion counter, kind, args):
    # ties on arrival go in insertion order.
    pending: list[tuple[int, int, str, tuple]] = []
    counter = itertools.count()
    switch_done = False

    def enqueue_datum(pid: str, kind: str, args: tuple, device_ts: int, idx: int) -> None:
        stream = miss_streams[pid]
        u_loss = stream.next_float()
        delay_points = stream.next_geometric(delay_p)
        if u_loss < loss_prob:
            return  # lost forever; draws consumed either way
        if delay_points == 0:
            arrival = device_ts
        else:
            late_idx = idx + delay_points
            if late_idx < total_points:
                arrival = schedule.due_ts(late_idx) + ARRIVAL_EPSILON_MS
            else:
                arrival = trial_end_ts
        heapq.heappush(pending, (arrival, next(counter), kind, args))

    def flush(now_ts: int) -> None:
        while pending and pending[0][0] <= now_ts:
            arrival, _, kind, args = heapq.heappop(pending)
            if kind == "data":
                pid, fname, value, device_ts = args
                runtime.ingest_observation(pid, fname, value, device_ts, backend_ts=arrival)
            else:
                pid, idx, reward, device_ts = args
                runtime.ingest_outcome(pid, idx, reward, device_ts, backend_ts=arrival)

    timeline: list[tuple[int, int, str, int]] = []
    for day in range(env.n_days):
        for idx, due in schedule.decision_points(day):
            timeline.append((due, 0, "decision", idx))
        timeline.append((schedule.update_ts(day), 0, "update", day))
    timeline.sort(key=lambda item: item[0])

    for ts, _, kind, arg in timeline:
        if (
            config.version_switch is not None
            and not switch_done
            and ts >= schedule.trial_start_ts + config.version_switch.day * MS_PER_DAY
        ):
            switch_ts = schedule.trial_start_ts + config.version_switch.day * MS_PER_DAY
            flush(switch_ts)  # arrivals preceding the switch keep the old stamp
            runtime.register_version(
                config.version_switch.version_id,
                default_logic().fingerprint,
                backend_ts=switch_ts,
            )
            switch_done = True
        flush(ts)
        if kind == "decision":
            idx = arg
            for pid in participants:
                twin = twins[pid]
                context = twin_context(twin, idx, k)
                device_ts = ts - CONTEXT_LEAD_MS
                for fname in features.names:
                    enqueue_datum(pid, "data", (pid, fname, context[fname], device_ts), device_ts, idx)
                flush(ts)
                runtime.assemble_features(pid, idx, backend_ts=ts)
                delta = true_effect(twin, context, features)
                truth.deltas[(pid, idx)] = delta
                if override is not None:
                    oracle_pi[(pid, idx)] = 1.0 if delta > 0.0 else 0.0
                record = runtime.make_decision(pid, idx, backend_ts=ts)
                twins[pid], y, _ = step_participant(
                    twin, env, idx, record.action, features, points_per_day=k
                )
                truth.outcomes[(pid, idx)] = y
                outcome_device_ts = ts + OUTCOME_LAG_MS
                enqueue_datum(pid, "outcome", (pid, idx, y, outcome_device_ts), outcome_device_ts, idx)
        else:
            for pid in participants:
                runtime.run_update_cycle(pid, backend_ts=ts)

    flush(trial_end_ts)
    truth.participants = dict(twins)
    return TrialResult(
        ledger=ledger,
        truth=truth,
        env=env,
        candidate_label=candidate_label,
        master_seed=master_seed,
    )


# -- evaluation ---------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRow:
    env_label: str
    candidate_label: str
    seed: int
    n_decisions: int
    mean_outcome: float
    cumulative_regret: float
    fallback_rate: float
    decision_coverage: float
    mean_pi: float


@dataclass(frozen=True)
class EvalAggregate:
    env_label: str
    candidate_label: str
    n_seeds: int
    mean_outcome: float
    mean_outcome_sd: float
    cumulative_regret: float
    cumulative_regret_sd: float
    fallback_rate: float
    decision_coverage: float
    mean_pi: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EvalRow, ...]
    aggregates: tuple[EvalAggregate, ...]

    def to_bytes(self) -> bytes:
        lines = [b"# ledgerloop eval report v1"]
        for row in self.rows:
            lines.append(canonical_json_bytes({"kind": "row", **_row_dict(row)}))
        for agg in self.aggregates:
            lines.append(canonical_json_bytes({"kind": "aggregate", **_row_dict(agg)}))
        return b"\n".join(lines) + b"\n"


def _row_dict(obj) -> dict:
    out: dict = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float):
            out[f.name] = {"dec": repr(value), "hex": encode_float(value)}
        else:
            out[f.name] = value
    return out


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs) if xs else 0.0


def _sd(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return math.sqrt(math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def evaluate_rows(results: list[TrialResult]) -> list[EvalRow]:
    """Score trials against their environments' ground truth.

    Regret compares the logged action against the oracle action (argmax of
    the true conditional mean, ties to action 0) using the twin's retained
    parameters, not realized noise.
    """
    rows = []
    for result in results:
        env = result.env
        truth = result.truth
        scheduled = env.n_participants * env.n_days * _points_per_day(result)
        n_decisions = 0
        fallbacks = 0
        pis: list[float] = []
        regret = 0.0
        for record in result.ledger.iterate(event_types={"DECISION"}):
            decision = events.parse_decision(record.payload)
            key = (decision.participant_id, decision.decision_index)
            if key not in truth.deltas:
                raise ConfigurationError(
                    f"ledger decision {key} not found in environment ground truth"
                )
            n_decisions += 1
            fallbacks += 1 if decision.fallback else 0
            pis.append(decision.pi)
            delta = truth.deltas[key]
            regret += max(0.0, delta) - decision.action * delta
        outcomes = [truth.outcomes[k] for k in sorted(truth.outcomes)]
        rows.append(
            EvalRow(
                env_label=env.label,
                candidate_label=result.candidate_label,
                seed=result.master_seed,
                n_decisions=n_decisions,
                mean_outcome=_mean(outcomes),
                cumulative_regret=regret,
                fallback_rate=(fallbacks / n_decisions) if n_decisions else 0.0,
                decision_coverage=n_decisions / scheduled if scheduled else 0.0,
                mean_pi=_mean(pis),
            )
        )
    return rows


def aggregate_rows(rows: list[EvalRow]) -> list[EvalAggregate]:
    groups: dict[tuple[str, str], list[EvalRow]] = {}
    for row in rows:
        groups.setdefault((row.env_label, row.candidate_label), []).append(row)
    aggregates = []
    for (env_label, cand), members in groups.items():
        aggregates.append(
            EvalAggregate(
                env_label=env_label,
                candidate_label=cand,
                n_seeds=len(members),
                mean_outcome=_mean([m.mean_outcome for m in members]),
                mean_outcome_sd=_sd([m.mean_outcome for m in members]),
                cumulative_regret=_mean([m.cumulative_regret for m in members]),
                cumulative_regret_sd=_sd([m.cumulative_regret for m in members]),
                fallback_rate=_mean([m.fallback_rate for m in members]),
                decision_coverage=_mean([m.decision_coverage for m in members]),
                mean_pi=_mean([m.mean_pi for m in members]),
            )
        )
    return aggregates


def evaluate(results: list[TrialResult]) -> EvalReport:
    rows = evaluate_rows(results)
    return EvalReport(rows=tuple(rows), aggregates=tuple(aggregate_rows(rows)))


def _points_per_day(result: TrialResult) -> int:
    header = next(result.ledger.iterate(event_types={"HEADER"}))
    return len(events.parse_header(header.payload).config["schedule"]["decision_times"])


def _eval_row_task(task: tuple) -> EvalRow:
    env, config, seed, candidate_label = task
    result = run_trial(env, config, seed, candidate_label=candidate_label)
    return evaluate_rows([result])[0]


def _run_tasks(tasks: list[tuple], jobs: int = 1) -> list[EvalRow]:
    # Task order fixes row order; a pool only changes who computes each row.
    if jobs <= 1 or len(tasks) <= 1:
        return [_eval_row_task(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_eval_row_task, tasks))


def run_grid(
    config: RunConfig,
    envs: list[EnvironmentSpec],
    seeds: list[int],
    candidate_label: str = "candidate",
    jobs: int = 1,
) -> EvalReport:
    """Evaluate the configured candidate across an environment grid."""
    if not envs or not seeds:
        raise ConfigurationError("run_grid requires non-empty envs and seeds")
    base = dataclasses.replace(config, stream_id=None)
    tasks = [(env, base, seed, candidate_label) for env in envs for seed in seeds]
    rows = _run_tasks(tasks, jobs)
    return EvalReport(rows=tuple(rows), aggregates=tuple(aggregate_rows(rows)))


# -- tuning ------------------------------------------------------------------------


@dataclass(frozen=True)
class TuneCandidate:
    prior_precision_scale: float
    noise_variance: float
    clip: tuple[float, float] | None = None  # optional (p_min, p_max) override

    @property
    def label(self) -> str:
        label = f"lam={self.prior_precision_scale!r},noise={self.noise_variance!r}"
        if self.clip is not None:
            label += f",clip=[{self.clip[0]!r},{self.clip[1]!r}]"
        return label


@dataclass(frozen=True)
class RankedCandidate:
    rank: int
    candidate: TuneCandidate
    score: float
    regret_variance: float


def tuning_candidates(config: RunConfig) -> list[TuneCandidate]:
    """Cartesian product of the tuning grids, in declared level order."""
    tuning = config.tuning if isinstance(config.tuning, dict) else {}
    lams = tuning.get("prior_precision_scale") or [config.model.prior_precision_scale]
    noises = tuning.get("noise_variance") or [config.model.noise_variance]
    return [
        TuneCandidate(prior_precision_scale=float(lam), noise_variance=float(noise))
        for lam in lams
        for noise in noises
    ]


def tune(
    config: RunConfig,
    envs: list[EnvironmentSpec],
    seeds: list[int],
    candidates: list[TuneCandidate],
    jobs: int = 1,
) -> tuple[list[RankedCandidate], EvalReport]:
    """Score every candidate across the environment grid and rank them.

    Score is the mean outcome averaged over environments and seeds; ties
    break toward lower across-environment regret variance, then smaller
    prior precision scale. The full table is returned, not just the winner.
    """
    if not envs or not seeds or not candidates:
        raise ConfigurationError("tune requires non-empty envs, seeds, and candidates")
    tasks = []
    for candidate in candidates:
        overrides: dict = {
            "prior_precision_scale": candidate.prior_precision_scale,
            "noise_variance": candidate.noise_variance,
        }
        if candidate.clip is not None:
            overrides["clip_min"], overrides["clip_max"] = candidate.clip
        model = dataclasses.replace(config.model, **overrides)
        cand_config = dataclasses.replace(config, model=model, stream_id=None)
        for env in envs:
            for seed in seeds:
                tasks.append((env, cand_config, seed, candidate.label))
    rows = _run_tasks(tasks, jobs)
    report = EvalReport(rows=tuple(rows), aggregates=tuple(aggregate_rows(rows)))

    ranked = []
    for candidate in candidates:
        scores = [r.mean_outcome for r in report.rows if r.candidate_label == candidate.label]
        per_env_regret = [
            agg.cumulative_regret
            for agg in report.aggregates
            if agg.candidate_label == candidate.label
        ]
        mean_env_regret = _mean(per_env_regret)
        regret_var = _mean([(r - mean_env_regret) ** 2 for r in per_env_regret])
        ranked.append((candidate, _mean(scores), regret_var))
    ranked.sort(
        key=lambda item: (
            -item[1],
            item[2],
            item[0].prior_precision_scale,
            item[0].noise_variance,
        )
    )
    final = [
        RankedCandidate(rank=i, candidate=cand, score=score, regret_variance=var)
        for i, (cand, score, var) in enumerate(ranked)
    ]
    return final, report


def tuning_report_bytes(ranked: list[RankedCandidate], report: EvalReport) -> bytes:
    lines = [b"# ledgerloop tuning report v1"]
    for item in ranked:
        lines.append(
            canonical_json_bytes(
                {
                    "kind": "ranked",
                    "rank": item.rank,
                    "candidate": item.candidate.label,
                    "prior_precision_scale": {
                        "dec": repr(item.candidate.prior_precision_scale),
                        "hex": encode_float(item.candidate.prior_precision_scale),
                    },
                    "noise_variance": {
                        "dec": repr(item.candidate.noise_variance),
                        "hex": encode_float(item.candidate.noise_variance),
                    },
                    "score": {"dec": repr(item.score), "hex": encode_float(item.score)},
                    "regret_variance": {
                        "dec": repr(item.regret_variance),
                        "hex": encode_float(item.regret_variance),
                    },
                }
            )
        )
    return b"\n".join(lines) + b"\n" + report.to_bytes()
