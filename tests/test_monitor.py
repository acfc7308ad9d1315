import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_run_config, make_runtime
from ledgerloop.config import MS_PER_DAY
from ledgerloop.errors import ConfigurationError, DecodeError
from ledgerloop.events import ErrorInfo, RunningFsum, StreamIndex
from ledgerloop.ledger import read_records, verify_chain
from ledgerloop.monitor import (
    DEFAULT_RULES,
    AlertRule,
    compute_metrics,
    emit_report,
    evaluate_alerts,
)
from ledgerloop.replay import default_logic, replay_verify
from ledgerloop.twin import EnvironmentSpec, run_trial


def small_env(**overrides) -> EnvironmentSpec:
    base = dict(
        effect_mean=(0.5, 0.0, 0.0),
        baseline_mean=(0.2, 0.0, 0.0),
        outcome_noise_sd=0.5,
        engagement_noise_sd=0.05,
        n_participants=2,
        n_days=3,
    )
    base.update(overrides)
    return EnvironmentSpec(**base)


def trial(seed=5, env=None, path=None, **config_overrides):
    config = make_run_config(**config_overrides)
    return run_trial(env or small_env(), config, seed, out_path=path)


def test_healthy_trial_metrics():
    metrics = compute_metrics(trial().index)
    assert metrics.overall["decision_coverage"] == 1.0
    assert metrics.overall["fallback_rate"] == 0.0
    assert metrics.overall["decision_count"] == 12
    assert metrics.overall["scheduled"] == 12
    assert metrics.overall["update_success_rate"] == 1.0
    assert 0.1 <= metrics.overall["mean_pi"] <= 0.9
    for day in range(3):
        assert metrics.per_day[day]["decision_coverage"] == 1.0
        assert metrics.per_day[day]["decision_count"] == 4


def test_all_exception_trial_full_fallback_full_coverage():
    metrics = compute_metrics(
        trial(injection={"policy_exception_prob": 1.0}).index
    )
    assert metrics.overall["decision_coverage"] == 1.0
    assert metrics.overall["fallback_rate"] == 1.0
    assert metrics.overall["error_count"] >= 12
    assert metrics.overall["mean_pi"] == 0.5


def test_total_miss_zero_completeness():
    metrics = compute_metrics(trial(env=small_env(miss_prob=1.0)).index)
    assert metrics.overall["data_completeness"] == 0.0


def test_partial_miss_between_zero_and_one():
    metrics = compute_metrics(trial(env=small_env(miss_prob=0.4)).index)
    assert 0.0 < metrics.overall["data_completeness"] < 1.0


def test_metrics_refuse_broken_chain(tmp_path):
    path = tmp_path / "l.ndjson"
    trial(path=path).ledger.close()
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    # The index of a file is folded from the verified read pass, so no
    # metric is computed from a broken chain.
    with pytest.raises(DecodeError):
        compute_metrics(StreamIndex.fold(read_records(path)))


def test_rate_identities():
    metrics = compute_metrics(trial().index)
    for table in [metrics.overall, *metrics.per_day.values()]:
        assert table["decision_count"] == table["decision_coverage"] * table["scheduled"]
        for name in ("decision_coverage", "fallback_rate", "update_success_rate", "data_completeness"):
            assert 0.0 <= table[name] <= 1.0


def test_errors_count_on_the_trial_day_of_their_backend_ts():
    # A day starts at its first millisecond; a timestamp before the trial
    # counts on day 0 and one after it on the last day.
    result = trial()
    before = [result.index.days[day].errors for day in range(3)]
    for backend_ts in (MS_PER_DAY - 1, MS_PER_DAY, 2 * MS_PER_DAY, -5 * MS_PER_DAY, 100 * MS_PER_DAY):
        result.index.apply(result.ledger.append(ErrorInfo("update_failure", "m"), backend_ts, "v1.0.0"))
    metrics = compute_metrics(result.index)
    assert [metrics.per_day[day]["error_count"] - before[day] for day in range(3)] == [2, 1, 2]


def test_a_replaced_snapshot_counts_once():
    # A point assembled again before its decision counts with its last
    # snapshot's provenance only.
    runtime = make_runtime(make_run_config(), participants=("p0",))
    runtime.start(backend_ts=0)
    first = runtime.assemble_features("p0", 0)
    runtime.ingest_observation("p0", "engagement", 0.5, 9 * 3_600_000 - 60_000, backend_ts=9 * 3_600_000 - 60_000)
    last = runtime.assemble_features("p0", 0)
    assert first.provenance.count("observed") < last.provenance.count("observed")
    day = compute_metrics(runtime.index).per_day[0]
    assert day["data_completeness"] == last.provenance.count("observed") / len(last.provenance)
    # Replay's snapshots_seen counts points, and late data names the last snapshot.
    assert runtime.index.snapshots_seen == 1
    assert runtime.index.participants["p0"].snapshot_seq(0) == len(runtime.ledger) - 1


# -- alerts -------------------------------------------------------------------------


def test_no_alerts_on_healthy_trial():
    metrics = compute_metrics(trial().index)
    alerts = evaluate_alerts(metrics, [AlertRule("decision_coverage", "<", 0.95)])
    assert alerts == []


def test_fallback_alert_fires_on_all_exception_trial():
    metrics = compute_metrics(trial(injection={"policy_exception_prob": 1.0}).index)
    alerts = evaluate_alerts(
        metrics, [AlertRule("fallback_rate", ">", 0.1, severity="high")]
    )
    assert len(alerts) == 3  # one per day
    assert all(a.rule.severity == "high" for a in alerts)
    assert alerts[0].value == 1.0


def test_two_rules_same_metric_both_evaluated_in_order():
    metrics = compute_metrics(trial(injection={"policy_exception_prob": 1.0}).index)
    rules = [
        AlertRule("fallback_rate", ">", 0.5, window="overall", severity="high"),
        AlertRule("fallback_rate", ">", 0.1, window="overall", severity="low"),
    ]
    alerts = evaluate_alerts(metrics, rules)
    assert [a.rule.severity for a in alerts] == ["high", "low"]


def test_alerts_appended_to_ledger(tmp_path):
    path = tmp_path / "l.ndjson"
    result = trial(path=path, injection={"policy_exception_prob": 1.0})
    metrics = compute_metrics(result.index)
    before = len(result.ledger)
    with result.ledger:
        fired = evaluate_alerts(
            metrics, [AlertRule("fallback_rate", ">", 0.1, window="overall")], ledger=result.ledger
        )
    assert len(result.ledger) == before + len(fired) == before + 1
    records = list(read_records(path))
    assert len(records) == len(result.ledger)
    last = records[-1]
    assert last.event_type == "ALERT"
    assert last.payload.metric == "fallback_rate"
    # monitoring appends never break the chain
    assert verify_chain(path) is None


def test_replay_stays_exact_after_alert_appends(tmp_path):
    path = tmp_path / "l.ndjson"
    result = trial(path=path, injection={"policy_exception_prob": 1.0})
    metrics = compute_metrics(result.index)
    with result.ledger:
        evaluate_alerts(metrics, list(DEFAULT_RULES), ledger=result.ledger)
    report = replay_verify(read_records(path), {"v1.0.0": default_logic()})
    assert report.exact


def test_alert_determinism():
    result = trial(injection={"policy_exception_prob": 1.0})
    metrics = compute_metrics(result.index)
    a = evaluate_alerts(metrics, list(DEFAULT_RULES))
    b = evaluate_alerts(metrics, list(DEFAULT_RULES))
    assert a == b


def test_unknown_metric_rejected():
    with pytest.raises(ConfigurationError):
        AlertRule("coverage_typo", "<", 0.9)
    with pytest.raises(ConfigurationError):
        AlertRule("decision_coverage", "~", 0.9)


def test_default_rules_fire_on_degraded_trial():
    metrics = compute_metrics(
        trial(env=small_env(miss_prob=1.0), injection={"policy_exception_prob": 1.0}).index
    )
    alerts = evaluate_alerts(metrics, list(DEFAULT_RULES))
    fired_metrics = {a.rule.metric for a in alerts}
    assert "fallback_rate" in fired_metrics
    assert "data_completeness" in fired_metrics
    assert "error_count" in fired_metrics
    assert "decision_coverage" not in fired_metrics  # coverage stays total


# -- report -------------------------------------------------------------------------


def test_report_without_replay_section():
    metrics = compute_metrics(trial().index)
    data = emit_report(metrics, [])
    assert b'"kind":"replay"' not in data
    assert b'"replay_included":false' in data


def test_report_with_exact_divergence_states_pass(tmp_path):
    path = tmp_path / "l.ndjson"
    result = trial(path=path)
    result.ledger.close()
    metrics = compute_metrics(result.index)
    divergence = replay_verify(read_records(path), {"v1.0.0": default_logic()})
    data = emit_report(metrics, [], divergence)
    assert b'"deployment_reproducibility":"PASS"' in data


def test_report_deterministic_bytes():
    result = trial()
    metrics = compute_metrics(result.index)
    alerts = evaluate_alerts(metrics, list(DEFAULT_RULES))
    assert emit_report(metrics, alerts) == emit_report(metrics, alerts)


# -- the running sum behind mean_pi -------------------------------------------------


def running_fsum(values) -> float:
    running = RunningFsum()
    for value in values:
        running.add(value)
    return running.value()


# A DECISION's pi lies in [0, 1]; other finite floats of every scale and
# sign too, short of sums that overflow.
FINITE = st.one_of(st.floats(0.0, 1.0), st.floats(-1e300, 1e300), st.sampled_from([5e-324, -0.0, 1e300]))


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, max_size=60))
def test_the_running_sum_gives_fsums_bits(values):
    assert struct.pack(">d", running_fsum(values)) == struct.pack(">d", math.fsum(values))
