import math
import statistics

import pytest

from conftest import make_run_config, records_of
from ledgerloop import events, policy
from ledgerloop.errors import ConfigurationError
from ledgerloop.ledger import LEDGER_TEXT, encode_float, map_floats, read_records
from ledgerloop.twin import (
    EnvironmentSpec,
    ParticipantTwin,
    TuneCandidate,
    evaluate_rows,
    realize_participant,
    run_grid,
    run_trial,
    step_participant,
    tune,
    tuning_report_bytes,
    twin_context,
)


def small_env(**overrides) -> EnvironmentSpec:
    base = dict(
        effect_mean=(0.5, 0.0, 0.0),
        baseline_mean=(0.2, 0.0, 0.0),
        effect_sd=0.0,
        baseline_sd=0.0,
        outcome_noise_sd=0.5,
        engagement_persistence=0.5,
        action_engagement_boost=0.2,
        engagement_noise_sd=0.05,
        miss_prob=0.0,
        delay_geometric_p=1.0,
        n_participants=2,
        n_days=3,
    )
    base.update(overrides)
    return EnvironmentSpec(**base)


# -- environment grid -----------------------------------------------------------


def grid_of(axes: dict) -> tuple[EnvironmentSpec, ...]:
    return make_run_config(grid=axes).environments


def test_grid_singleton():
    config = make_run_config()
    assert config.environments == (config.environment,)
    assert grid_of({}) == (config.environment,)
    assert config.environments[0].label == "env"


def test_grid_two_by_two():
    axes = {"effect_mean": [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], "effect_sd": [0.0, 0.3]}
    grid = grid_of(axes)
    assert len(grid) == 4
    # effect_mean is the earlier field, so it varies slowest
    assert [env.effect_mean[0] for env in grid] == [0.0, 0.0, 0.5, 0.5]
    assert [env.effect_sd for env in grid] == [0.0, 0.3, 0.0, 0.3]
    assert [env.label for env in grid] == ["env000", "env001", "env002", "env003"]
    # fields without an axis stay at the base environment's value
    assert {env.outcome_noise_sd for env in grid} == {make_run_config().environment.outcome_noise_sd}


def test_grid_three_axes_count_and_order():
    axes = {
        "miss_prob": [0.0, 0.5],
        "outcome_noise_sd": [0.5, 1],
        "drift": [0.0, 0.01, 0.02],
    }
    grid = grid_of(axes)
    assert len(grid) == 12
    # declaration order: drift before outcome_noise_sd before miss_prob
    assert [e.drift for e in grid[:4]] == [0.0, 0.0, 0.0, 0.0]
    assert [e.outcome_noise_sd for e in grid[:4]] == [0.5, 0.5, 1.0, 1.0]
    assert type(grid[2].outcome_noise_sd) is float  # a YAML integer level is read as a float
    assert [e.miss_prob for e in grid[:4]] == [0.0, 0.5, 0.0, 0.5]


def test_grid_rejects_empty_axis():
    with pytest.raises(ConfigurationError, match=r"^grid\.drift: expected a non-empty list$"):
        grid_of({"drift": []})
    with pytest.raises(ConfigurationError, match=r"^grid\.unknown_knob: not a member$"):
        grid_of({"unknown_knob": [1]})
    with pytest.raises(ConfigurationError, match=r"^grid\.label: not a member$"):
        grid_of({"label": ["a"]})
    with pytest.raises(ConfigurationError, match=r"^grid: miss_prob must be in \[0, 1\]$"):
        grid_of({"miss_prob": [0.5, 2.0]})


def test_environment_validation():
    with pytest.raises(ConfigurationError):
        small_env(engagement_persistence=1.0)
    with pytest.raises(ConfigurationError):
        small_env(delay_geometric_p=0.0)
    with pytest.raises(ConfigurationError, match=r"^environment\.bogus: not a member$"):
        make_run_config(environment={"bogus": 1})
    with pytest.raises(ConfigurationError, match=r"^environment: delay_geometric_p must be in \(0, 1\]$"):
        make_run_config(environment={"delay_geometric_p": 0.0})


# -- participant dynamics ----------------------------------------------------------


def manual_twin(**overrides) -> ParticipantTwin:
    base = dict(
        participant_id="p0",
        b=(0.5, 0.25, 2.0),
        theta=(0.25, 0.0, 0.0),
        engagement=0.0,
        prior_outcome=0.0,
        t=0,
        noise_state=123,
        engage_state=456,
    )
    base.update(overrides)
    return ParticipantTwin(**base)


def test_null_effect_makes_actions_indistinguishable():
    env = small_env(effect_mean=(0.0, 0.0, 0.0), outcome_noise_sd=0.7)
    twin = manual_twin(theta=(0.0, 0.0, 0.0))
    _, y0, _ = step_participant(twin, env, 0, 0)
    _, y1, _ = step_participant(twin, env, 0, 1)
    assert y0 == y1  # identical noise draw, zero treatment effect


def test_deterministic_limit_exact_outcome():
    env = small_env(outcome_noise_sd=0.0, drift=0.0, engagement_noise_sd=0.0)
    twin = manual_twin()
    # context: intercept 1, prior_outcome 0, time_of_day 0 (slot 0), engagement 0
    _, y0, ctx = step_participant(twin, env, 0, 0)
    assert y0 == 0.5  # g(s)'b = 1*0.5 exactly (dyadic values)
    _, y1, _ = step_participant(twin, env, 0, 1)
    assert y1 == 0.75  # + h(s)'theta = 0.25
    assert ctx == {"intercept": 1.0, "prior_outcome": 0.0, "time_of_day": 0.0, "engagement": 0.0}


def test_drift_shifts_intercept_weight():
    env = small_env(outcome_noise_sd=0.0, drift=0.5, engagement_noise_sd=0.0)
    twin = manual_twin()
    _, y, _ = step_participant(twin, env, 4, 0)
    assert y == 0.5 + 0.5 * 4


def test_engagement_fixed_point():
    # kappa = 0.2, rho = 0.5, E0 = 0, no noise, always act -> E -> 0.4
    env = small_env(
        engagement_persistence=0.5, action_engagement_boost=0.2, engagement_noise_sd=0.0
    )
    twin = manual_twin()
    oracle_e = 0.0
    for t in range(60):
        twin, _, _ = step_participant(twin, env, t, 1)
        oracle_e = 0.5 * oracle_e + 0.2  # independent recurrence
    assert twin.engagement == oracle_e
    assert abs(twin.engagement - 0.4) < 1e-12


def test_engagement_clamped_to_unit_interval():
    env = small_env(action_engagement_boost=5.0, engagement_noise_sd=0.0)
    twin = manual_twin()
    twin, _, _ = step_participant(twin, env, 0, 1)
    assert twin.engagement == 1.0


def test_realize_participant_heterogeneity():
    env = small_env(effect_sd=0.5, baseline_sd=0.3)
    a = realize_participant(env, 7, "p000", 3, 3)
    b = realize_participant(env, 7, "p001", 3, 3)
    assert a.theta != b.theta
    assert a.b != b.b
    # deterministic given (seed, id)
    again = realize_participant(env, 7, "p000", 3, 3)
    assert again.theta == a.theta and again.b == a.b


def test_time_of_day_context():
    twin = manual_twin()
    assert twin_context(twin, 0, 2)["time_of_day"] == 0.0
    assert twin_context(twin, 1, 2)["time_of_day"] == 1.0
    assert twin_context(twin, 7, 5)["time_of_day"] == 0.5  # slot 2 of 5


# -- trials -----------------------------------------------------------------------


def test_trial_determinism_byte_identical(tmp_path):
    config = make_run_config()
    env = small_env()
    p1 = tmp_path / "a.ndjson"
    p2 = tmp_path / "b.ndjson"
    run_trial(env, config, 11, out_path=p1).ledger.close()
    run_trial(env, config, 11, out_path=p2).ledger.close()
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.stat().st_size > 0


def test_trial_different_seed_differs(tmp_path):
    config = make_run_config()
    env = small_env()
    p1 = tmp_path / "a.ndjson"
    p2 = tmp_path / "b.ndjson"
    run_trial(env, config, 11, out_path=p1).ledger.close()
    run_trial(env, config, 12, out_path=p2).ledger.close()
    assert p1.read_bytes() != p2.read_bytes()


def test_total_miss_means_nothing_observed(tmp_path):
    config = make_run_config()
    path = tmp_path / "trial.ndjson"
    run_trial(small_env(miss_prob=1.0), config, 3, out_path=path).ledger.close()
    snapshots = records_of(path, "FEATURE_SNAPSHOT")
    assert snapshots
    for record in snapshots:
        snapshot = events.parse_snapshot(record.payload)
        assert all(tag in ("imputed", "default") for tag in snapshot.provenance)
    assert not records_of(path, "DATA_INGESTED")


def test_decision_count_arithmetic():
    config = make_run_config()
    result = run_trial(small_env(n_participants=2, n_days=3), config, 5)
    assert len(result.index.decided) == 2 * 3 * 2


def test_seed_isolation_between_participants(tmp_path):
    config = make_run_config()
    env = small_env(n_participants=3, miss_prob=0.2, delay_geometric_p=0.8)

    def participant_payloads(path, pid):
        out = []
        for record in read_records(path):
            if record.event_type in ("DECISION", "OUTCOME_OBSERVED", "FEATURE_SNAPSHOT"):
                if record.payload.participant_id == pid:
                    out.append((record.event_type, map_floats(record.payload, encode_float)))
        return out

    base, changed = tmp_path / "base.ndjson", tmp_path / "changed.ndjson"
    run_trial(env, config, 9, out_path=base, participant_ids=["pA", "pB", "pC"]).ledger.close()
    run_trial(env, config, 9, out_path=changed, participant_ids=["pX", "pB", "pC"]).ledger.close()
    for pid in ("pB", "pC"):
        assert participant_payloads(base, pid) == participant_payloads(changed, pid)
    assert participant_payloads(base, "pA") != participant_payloads(changed, "pX")


def test_miss_probability_monotonicity():
    config = make_run_config()
    counts = []
    for p_miss in (0.0, 0.3, 0.7, 1.0):
        result = run_trial(small_env(miss_prob=p_miss, n_days=4), config, 21)
        counts.append(result.index.totals.observed)
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 0 and counts[-1] == 0


# -- evaluation --------------------------------------------------------------------


def test_uniform_policy_regret_matches_closed_form():
    # Constant effect 0.6 per exposure, uniform pi = 0.5: E[regret] = 0.5 * 0.6 * T.
    config = make_run_config(model={"clip_min": 0.5, "clip_max": 0.5})
    env = small_env(
        effect_mean=(0.6, 0.0, 0.0),
        n_participants=1,
        n_days=3,
        outcome_noise_sd=0.3,
    )
    total = 0.0
    n_seeds = 1000
    for seed in range(n_seeds):
        result = run_trial(env, config, seed)
        total += evaluate_rows([result])[0].cumulative_regret
    expected = 0.5 * 0.6 * 6  # T = 1 participant x 3 days x 2 points
    assert abs(total / n_seeds - expected) < 0.1  # MC se ~ 0.023


def test_coverage_is_one_without_failures():
    config = make_run_config()
    row = evaluate_rows([run_trial(small_env(), config, 4)])[0]
    assert row.decision_coverage == 1.0
    assert row.fallback_rate == 0.0


def test_eval_report_bytes_deterministic():
    config = make_run_config()
    env = small_env()
    a = run_grid(config, [env], [1, 2]).to_bytes()
    b = run_grid(config, [env], [1, 2]).to_bytes()
    assert a == b
    assert a.startswith(b"# ledgerloop eval report v1\n")


def test_pool_workers_inherit_the_compiled_payload_encoders(monkeypatch):
    # Compiled in the parent before the pool forks, not once in each worker:
    # the payload encoders and the posterior kernels of the run's dimension.
    for cls in events.PAYLOADS.values():
        monkeypatch.delitem(LEDGER_TEXT.converters, cls, raising=False)
    monkeypatch.setattr(policy, "_KERNELS", {})
    config = make_run_config()
    run_grid(config, [small_env(n_days=1)], [1, 2], jobs=2)
    assert all(cls in LEDGER_TEXT.converters for cls in events.PAYLOADS.values())
    assert list(policy._KERNELS) == [config.model.dim]


def test_null_effect_calibration(tmp_path):
    # theta = 0, tau = 0: no arm difference at alpha = 0.01 over ~10^4 decisions.
    config = make_run_config()
    env = small_env(
        effect_mean=(0.0, 0.0, 0.0),
        n_participants=25,
        n_days=100,
        outcome_noise_sd=1.0,
    )
    path = tmp_path / "null.ndjson"
    result = run_trial(env, config, 31, out_path=path)
    result.ledger.close()
    arm = {0: [], 1: []}
    decisions = [record.payload for record in read_records(path) if record.event_type == "DECISION"]
    for decision in decisions:
        key = (decision.participant_id, decision.decision_index)
        arm[decision.action].append(result.truth.outcomes[key])
    n0, n1 = len(arm[0]), len(arm[1])
    assert n0 + n1 == 25 * 100 * 2
    mean_pis = [decision.pi for decision in decisions]
    assert 0.1 <= statistics.fmean(mean_pis) <= 0.9
    diff = statistics.fmean(arm[1]) - statistics.fmean(arm[0])
    se = math.sqrt(statistics.variance(arm[1]) / n1 + statistics.variance(arm[0]) / n0)
    assert abs(diff / se) < 2.576


# -- tuning ------------------------------------------------------------------------


def test_tune_single_candidate():
    config = make_run_config()
    ranked, report = tune(config, [small_env()], [1], [TuneCandidate(1.0, 1.0)])
    assert len(ranked) == 1
    assert ranked[0].rank == 0
    assert len(report.rows) == 1


def test_tune_tie_breaks_to_smaller_lambda():
    # Forced-uniform candidates act identically regardless of lambda, so
    # scores and variances tie exactly and the smaller lambda wins.
    config = make_run_config(model={"clip_min": 0.5, "clip_max": 0.5})
    candidates = [TuneCandidate(2.0, 1.0), TuneCandidate(0.5, 1.0)]
    ranked, _ = tune(config, [small_env()], [1, 2], candidates)
    assert ranked[0].candidate.prior_precision_scale == 0.5
    assert ranked[0].score == ranked[1].score


def test_tune_prefers_learning_over_forced_uniform():
    # Strong effect relative to noise: the learner must outrank the uniform arm.
    config = make_run_config()
    env = small_env(
        effect_mean=(0.8, 0.0, 0.0),
        outcome_noise_sd=0.4,
        n_participants=4,
        n_days=7,
    )
    candidates = [TuneCandidate(1.0, 1.0)]
    seeds = list(range(10))
    uniform = make_run_config(model={"clip_min": 0.5, "clip_max": 0.5})
    (forced,), _ = tune(uniform, [env], seeds, candidates)
    (learning,), report = tune(config, [env], seeds, candidates)
    assert learning.score > forced.score
    assert len(report.rows) == 10


def test_tuning_report_bytes_deterministic():
    config = make_run_config()
    candidates = [TuneCandidate(0.5, 1.0), TuneCandidate(1.0, 1.0)]
    out1 = tuning_report_bytes(*tune(config, [small_env()], [3], candidates))
    out2 = tuning_report_bytes(*tune(config, [small_env()], [3], candidates))
    assert out1 == out2
    assert out1.startswith(b"# ledgerloop tuning report v1\n")
