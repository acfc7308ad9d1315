"""Digital-twin testbed: generative participants, full trial simulation
through the real runtime, candidate evaluation, and tuning.

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
from operator import mul
from pathlib import Path

from . import events, policy
from .config import MS_PER_DAY, MS_PER_MINUTE, EnvironmentSpec, FeatureSpec, RunConfig
from .errors import ConfigurationError
from .ledger import LEDGER_TEXT, Ledger, _converter, config_digest, frozen_record, report_bytes
from .monitor import compute_metrics
from .replay import default_logic
from .rng import SplitMix64, derive_seed
from .runtime import Runtime

CONTEXT_LEAD_MS = MS_PER_MINUTE  # context measured one minute before the decision
OUTCOME_LAG_MS = 30 * MS_PER_MINUTE  # outcome observed half an hour after
ARRIVAL_EPSILON_MS = 1000  # delayed data lands just after a later decision


@frozen_record
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


def realize_participant(env: EnvironmentSpec, master_seed: int, participant_id: str) -> ParticipantTwin:
    """Draw one participant's weights from the environment's population."""
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
    context: dict[str, float] | None = None,
) -> tuple[ParticipantTwin, float, dict[str, float]]:
    """Advance one participant through one decision point.

    The outcome is linear in the true context (``twin_context``'s, unless
    passed) with the action adding the participant's treatment effect;
    engagement follows an AR(1) recurrence nudged by the action. Draw order
    is fixed: outcome noise, then engagement noise, one Gaussian each.
    """
    if features is None:
        features = FeatureSpec()
    if context is None:
        context = twin_context(twin, t, points_per_day)
    g = [context[name] for name in features.baseline]
    h = [context[name] for name in features.treatment]
    # Drift shifts the first baseline weight linearly in t.
    b_eff = list(twin.b)
    b_eff[0] = b_eff[0] + env.drift * t

    noise = SplitMix64(twin.noise_state)
    eps = noise.next_gauss()
    y = (
        math.fsum(map(mul, g, b_eff))
        + action * math.fsum(map(mul, h, twin.theta))
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

    next_twin = ParticipantTwin(
        participant_id=twin.participant_id,
        b=twin.b,
        theta=twin.theta,
        engagement=e_next,
        prior_outcome=y,
        t=t + 1,
        noise_state=noise.state,
        engage_state=engage.state,
    )
    return next_twin, y, context


def true_effect(twin: ParticipantTwin, context: dict[str, float], features: FeatureSpec) -> float:
    """Ground-truth treatment effect h(s)'theta_i for the current context."""
    return math.fsum(map(mul, [context[name] for name in features.treatment], twin.theta))


@dataclass
class TrialTruth:
    """What the twin knows and the ledger does not: realized outcomes, and
    the regret of the logged actions."""

    env: EnvironmentSpec
    outcomes: dict[tuple[str, int], float] = field(default_factory=dict)
    regret: float = 0.0  # against the oracle action (argmax of the true mean, ties to 0), in decision order


@dataclass
class TrialResult:
    ledger: Ledger
    index: events.StreamIndex  # the runtime's, folded as it wrote the ledger
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
    fsync: bool = False,
    participant_ids: list[str] | None = None,
) -> TrialResult:
    """Simulate one full trial by streaming twin data through the runtime.

    Identical (env, config, master_seed) produce byte-identical ledgers. The
    environment's missingness/latency apply to every datum at ingestion; the
    config's failure-injection spec can override them and adds policy
    exceptions. The runtime uses the default policy logic.
    """
    if config.version_switch is not None and config.version_switch.day >= env.n_days:
        raise ConfigurationError(
            "version_switch.day: must fall inside the trial "
            f"(day {config.version_switch.day}, trial has {env.n_days} days)"
        )
    model = config.model
    if len(env.baseline_mean) != model.baseline_dim or len(env.effect_mean) != model.treatment_dim:
        raise ConfigurationError(
            "environment vector lengths do not match model dimensions"
        )

    if participant_ids is None:
        participants = tuple(f"p{i:03d}" for i in range(env.n_participants))
    else:
        if len(participant_ids) != env.n_participants:
            raise ConfigurationError("participant_ids must match environment.n_participants")
        participants = tuple(participant_ids)
    deployment_seed = (
        config.deployment_seed
        if config.deployment_seed is not None
        else derive_seed(master_seed, "deployment")
    )
    stream_id = config.stream_id or f"{env.label}-{candidate_label}-seed{master_seed}"
    schedule = dataclasses.replace(config.schedule, trial_days=env.n_days)
    run_header = events.RunHeader(
        config.model, schedule, config.features, config.imputation, config.injection, participants, env
    )
    header = events.HeaderInfo(
        stream_id, config.environment_profile, deployment_seed, run_header, config_digest(run_header)
    )
    features, injection = config.features, config.injection

    truth = TrialTruth(env=env)

    ledger = Ledger(
        stream_id=stream_id,
        environment_profile=config.environment_profile,
        path=out_path,
        fsync=fsync,
    )
    runtime = Runtime(ledger, header, default_logic())
    runtime.start(backend_ts=schedule.trial_start_ts)

    twins = {
        pid: realize_participant(env, master_seed, pid) for pid in participants
    }
    miss_streams = {
        pid: SplitMix64(derive_seed(master_seed, "twin-miss", pid)) for pid in participants
    }
    loss_prob = injection.data_loss_prob if injection.data_loss_prob is not None else env.miss_prob
    delay_p = injection.delay_geometric_p if injection.delay_geometric_p is not None else env.delay_geometric_p

    k = schedule.points_per_day
    ingest_observation = runtime.ingest_observation
    total_points = schedule.total_points
    trial_end_ts = schedule.trial_start_ts + env.n_days * MS_PER_DAY

    # Late data and outcomes wait in a heap of (arrival_ts, insertion counter,
    # ingest, args), ingested as ``ingest(*args, arrival_ts)``, ties in
    # insertion order. A datum on time arrives at its device_ts, before its
    # point, and is ingested as drawn: after the point's flush every pending
    # arrival is later than the point, so no arrival goes ahead of it.
    pending: list[tuple[int, int, object, tuple]] = []
    counter = itertools.count()

    def arrival_ts(pid: str, device_ts: int, idx: int) -> int | None:
        """When a datum of point ``idx`` reaches the backend; None if it is lost."""
        stream = miss_streams[pid]
        u_loss = stream.next_float()
        delay_points = stream.next_geometric(delay_p)
        if u_loss < loss_prob:
            return None  # lost forever; draws consumed either way
        if delay_points == 0:
            return device_ts
        late_idx = idx + delay_points
        return schedule.due_ts(late_idx) + ARRIVAL_EPSILON_MS if late_idx < total_points else trial_end_ts

    def flush(now_ts: int) -> None:
        while pending and pending[0][0] <= now_ts:
            arrival, _, ingest, args = heapq.heappop(pending)
            ingest(*args, arrival)

    timeline: list[tuple[int, int, str, int]] = []
    for day in range(env.n_days):
        for idx, due in schedule.decision_points(day):
            timeline.append((due, 0, "decision", idx))
        timeline.append((schedule.update_ts(day), 0, "update", day))
    timeline.sort(key=lambda item: item[0])

    switch = config.version_switch
    switch_ts = None if switch is None else schedule.trial_start_ts + switch.day * MS_PER_DAY
    for ts, _, kind, arg in timeline:
        if switch_ts is not None and ts >= switch_ts:
            flush(switch_ts)  # arrivals preceding the switch keep the old stamp
            runtime.register_version(switch.version_id, backend_ts=switch_ts)
            switch_ts = None
        flush(ts)
        if kind == "decision":
            idx = arg
            device_ts = ts - CONTEXT_LEAD_MS
            outcome_device_ts = ts + OUTCOME_LAG_MS
            for pid in participants:
                twin = twins[pid]
                context = twin_context(twin, idx, k)
                for fname in features.names:
                    args = (pid, fname, context[fname], device_ts)
                    arrival = arrival_ts(pid, device_ts, idx)
                    if arrival == device_ts:
                        ingest_observation(*args, device_ts)
                    elif arrival is not None:
                        heapq.heappush(pending, (arrival, next(counter), ingest_observation, args))
                runtime.assemble_features(pid, idx, backend_ts=ts)
                delta = true_effect(twin, context, features)
                record = runtime.make_decision(pid, idx, backend_ts=ts)
                truth.regret += max(0.0, delta) - record.action * delta
                twins[pid], y, _ = step_participant(
                    twin, env, idx, record.action, features, points_per_day=k, context=context
                )
                truth.outcomes[(pid, idx)] = y
                arrival = arrival_ts(pid, outcome_device_ts, idx)
                if arrival is not None:
                    args = (pid, idx, y, outcome_device_ts)
                    heapq.heappush(pending, (arrival, next(counter), runtime.ingest_outcome, args))
        else:
            for pid in participants:
                runtime.run_update_cycle(pid, backend_ts=ts)

    flush(trial_end_ts)
    return TrialResult(
        ledger=ledger,
        index=runtime.index,
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
        return report_bytes(
            "eval",
            [{"kind": "row", **dataclasses.asdict(row)} for row in self.rows]
            + [{"kind": "aggregate", **dataclasses.asdict(agg)} for agg in self.aggregates],
        )


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs) if xs else 0.0


def _sd(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return math.sqrt(math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def evaluate_rows(results: list[TrialResult]) -> list[EvalRow]:
    """Score trials against their environments' ground truth.

    Decision count, coverage, fallback rate and mean pi are the overall
    metrics the monitor reads of the trial's index; regret is the twin's
    own sum (:class:`TrialTruth`), from its retained parameters, not
    realized noise.
    """
    rows = []
    for result in results:
        overall = compute_metrics(result.index).overall
        outcomes = list(result.truth.outcomes.values())  # fsum is exact, so their order is moot
        rows.append(
            EvalRow(
                env_label=result.env.label,
                candidate_label=result.candidate_label,
                seed=result.master_seed,
                n_decisions=overall["decision_count"],
                mean_outcome=_mean(outcomes),
                cumulative_regret=result.truth.regret,
                fallback_rate=overall["fallback_rate"],
                decision_coverage=overall["decision_coverage"],
                mean_pi=overall["mean_pi"],
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


def _eval_row_task(task: tuple) -> EvalRow:
    env, config, seed, candidate_label = task
    result = run_trial(env, config, seed, candidate_label=candidate_label)
    return evaluate_rows([result])[0]


def _run_tasks(tasks: list[tuple], jobs: int = 1) -> list[EvalRow]:
    # Task order fixes row order; a pool only changes who computes each row.
    if jobs <= 1 or len(tasks) <= 1:
        return [_eval_row_task(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    # Each payload class's writer is compiled on its first append, and the
    # posterior kernels of a dimension on their first call; compiled here,
    # before the pool forks, the workers inherit them.
    for cls in events.PAYLOADS.values():
        _converter(cls, LEDGER_TEXT)
    for dim in {task[1].model.dim for task in tasks}:
        policy.kernels(dim)
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

    @property
    def label(self) -> str:
        return f"lam={self.prior_precision_scale!r},noise={self.noise_variance!r}"


@dataclass(frozen=True)
class RankedCandidate:
    rank: int
    candidate: TuneCandidate
    score: float
    regret_variance: float


def tuning_candidates(config: RunConfig) -> list[TuneCandidate]:
    """Cartesian product of the tuning grids, in declared level order."""
    lams = config.tuning.prior_precision_scale or (config.model.prior_precision_scale,)
    noises = config.tuning.noise_variance or (config.model.noise_variance,)
    return [
        TuneCandidate(prior_precision_scale=lam, noise_variance=noise)
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
        model = dataclasses.replace(
            config.model,
            prior_precision_scale=candidate.prior_precision_scale,
            noise_variance=candidate.noise_variance,
        )
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
    items = [
        {
            "kind": "ranked",
            "rank": item.rank,
            "candidate": item.candidate.label,
            "prior_precision_scale": item.candidate.prior_precision_scale,
            "noise_variance": item.candidate.noise_variance,
            "score": item.score,
            "regret_variance": item.regret_variance,
        }
        for item in ranked
    ]
    return report_bytes("tuning", items) + report.to_bytes()
