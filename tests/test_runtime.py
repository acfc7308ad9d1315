import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_run_config, make_runtime, start_runtime
from ledgerloop import events
from ledgerloop.errors import ConfigurationError, StructuralAuditError
from ledgerloop.policy import (
    PosteriorState,
    canonical_serialize,
    decide,
    derive_decision_seed,
    init_state,
    update_posterior,
)
from ledgerloop.runtime import MS_PER_DAY, Schedule, schedule_decision_points

H9 = 9 * 3_600_000  # 09:00 in ms
H18 = 18 * 3_600_000
H23 = 23 * 3_600_000


# -- schedule -------------------------------------------------------------------


def test_schedule_day0_indices():
    sched = Schedule(decision_times=("09:00", "18:00"), update_time="23:00", trial_days=4)
    assert schedule_decision_points(sched, 0) == [(0, H9), (1, H18)]


def test_schedule_day3_indices():
    sched = Schedule(decision_times=("09:00", "18:00"), update_time="23:00", trial_days=4)
    points = schedule_decision_points(sched, 3)
    assert [idx for idx, _ in points] == [6, 7]
    assert points[0][1] == 3 * MS_PER_DAY + H9


def test_schedule_five_per_day():
    times = ("08:00", "11:00", "14:00", "17:00", "20:00")
    sched = Schedule(decision_times=times, update_time="23:00", trial_days=2)
    points = schedule_decision_points(sched, 1)
    assert [idx for idx, _ in points] == [5, 6, 7, 8, 9]


def test_schedule_rejects_day_out_of_range():
    sched = Schedule(trial_days=2)
    with pytest.raises(ConfigurationError):
        sched.decision_points(2)


def test_schedule_rejects_unsorted_times():
    with pytest.raises(ConfigurationError):
        Schedule(decision_times=("18:00", "09:00"))


# -- ingestion and assembly -------------------------------------------------------


def fresh_runtime(**overrides):
    config = make_run_config(**overrides)
    runtime = make_runtime(config)
    start_runtime(runtime)
    return runtime


def ingest_all(runtime, pid, device_ts, values=None):
    values = values or {"intercept": 1.0, "prior_outcome": 0.3, "time_of_day": 0.0, "engagement": 0.7}
    for name, value in values.items():
        runtime.ingest_observation(pid, name, value, device_ts, backend_ts=device_ts)


def test_fresh_data_is_observed():
    runtime = fresh_runtime()
    ingest_all(runtime, "p0", H9 - 60_000)
    snapshot = runtime.assemble_features("p0", 0)
    assert set(snapshot.provenance) == {"observed"}
    assert snapshot.baseline == (1.0, 0.3, 0.0)
    assert snapshot.treatment == (1.0, 0.3, 0.7)


def test_no_data_means_defaults():
    runtime = fresh_runtime()
    snapshot = runtime.assemble_features("p0", 0)
    assert set(snapshot.provenance) == {"default"}
    assert snapshot.baseline == (1.0, 0.0, 0.0)  # intercept default 1.0
    assert snapshot.imputation_methods == (None,) * 6


def test_locf_within_horizon():
    # engagement observed two decision points ago, H = 3 -> imputed via locf
    runtime = fresh_runtime()
    runtime.ingest_observation("p0", "engagement", 0.9, H9 - 60_000, backend_ts=H9 - 60_000)
    snapshot = runtime.assemble_features("p0", 2)  # two points later (day 1, 09:00)
    idx = 5  # engagement is the last treatment entry
    assert snapshot.provenance[idx] == "imputed"
    assert snapshot.imputation_methods[idx] == "locf"
    assert snapshot.treatment[2] == 0.9


def test_stale_beyond_horizon_falls_to_default():
    runtime = fresh_runtime(imputation={"horizon": 1})
    runtime.ingest_observation("p0", "engagement", 0.9, H9 - 60_000, backend_ts=H9 - 60_000)
    snapshot = runtime.assemble_features("p0", 2)
    assert snapshot.provenance[5] == "default"
    assert snapshot.treatment[2] == 0.0


def test_duplicate_datum_uses_lowest_seq():
    runtime = fresh_runtime()
    ts = H9 - 60_000
    runtime.ingest_observation("p0", "engagement", 0.25, ts, backend_ts=ts)
    runtime.ingest_observation("p0", "engagement", 0.75, ts, backend_ts=ts)  # same key and ts
    snapshot = runtime.assemble_features("p0", 0)
    assert snapshot.treatment[2] == 0.25
    # both ingestions are in the ledger
    data_events = list(runtime.ledger.iterate(event_types={"DATA_INGESTED"}))
    assert len(data_events) == 2


def test_late_data_references_superseded_snapshot_and_never_mutates_it():
    runtime = fresh_runtime()
    snapshot = runtime.assemble_features("p0", 0)
    assert snapshot.provenance[5] == "default"
    snap_record = next(runtime.ledger.iterate(event_types={"FEATURE_SNAPSHOT"}))
    line_before = snap_record.to_line()

    # ground truth arrives after the decision point it belonged to
    late_seq = runtime.ingest_observation(
        "p0", "engagement", 0.9, H9 - 60_000, backend_ts=H9 + 3_600_000
    )
    late = runtime.ledger.records()[late_seq]
    assert late.payload["superseded_snapshot_seq"] == snap_record.seq

    snap_after = runtime.ledger.records()[snap_record.seq]
    assert snap_after.to_line() == line_before


def test_on_time_data_has_no_superseded_reference():
    runtime = fresh_runtime()
    seq = runtime.ingest_observation("p0", "engagement", 0.9, H9 - 60_000, backend_ts=H9 - 60_000)
    assert runtime.ledger.records()[seq].payload["superseded_snapshot_seq"] is None


# The 3-day conftest schedule: due times of decision points 0..5, trial start 0.
DUES = [day * MS_PER_DAY + t for day in range(3) for t in (H9, H18)]
EDGE_TS = sorted({-MS_PER_DAY, -1, 0, 1} | {d + k for d in DUES for k in (-1, 0, 1)})
FEATURES = ("intercept", "prior_outcome", "time_of_day", "engagement")


def scan_reference(runtime, data, decision_index):
    """Feature assembly as a linear scan over every datum (seq, device_ts,
    value) ingested so far: the latest device_ts at or before the due time,
    the lowest seq on a tie."""
    due = DUES[decision_index]
    resolved = {}
    for name in FEATURES:
        best = None
        for seq, device_ts, value in data.get(name, ()):
            if device_ts > due:
                continue
            if best is None or (device_ts, -seq) > (best[1], -best[0]):
                best = (seq, device_ts, value)
        default = (runtime.imputation.default_for(name), "default", None, None)
        if best is None:
            resolved[name] = default
            continue
        _, device_ts, value = best
        window = -1 if device_ts < 0 else next(
            (j for j, d in enumerate(DUES) if device_ts <= d), len(DUES)
        )
        age = decision_index - window
        if age == 0:
            resolved[name] = (value, "observed", None, device_ts)
        elif age <= runtime.imputation.horizon:
            resolved[name] = (value, "imputed", "locf", device_ts)
        else:
            resolved[name] = default
    return [resolved[n] for n in runtime.features.baseline + runtime.features.treatment]


ingest_op = st.tuples(
    st.just("ingest"),
    st.sampled_from(FEATURES),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.one_of(st.sampled_from(EDGE_TS), st.integers(-MS_PER_DAY, 3 * MS_PER_DAY)),
)
assemble_op = st.tuples(st.just("assemble"), st.integers(0, len(DUES) - 1))


@settings(max_examples=150, deadline=None)
@given(horizon=st.integers(0, 4), ops=st.lists(st.one_of(ingest_op, assemble_op), max_size=40))
def test_indexed_assembly_matches_linear_scan(horizon, ops):
    # Arbitrary interleavings give out-of-order and late arrivals; the edge
    # timestamps give device_ts ties, data before the trial start (window -1)
    # and ages on both sides of the carry-forward horizon.
    runtime = fresh_runtime(imputation={"horizon": horizon})
    data: dict[str, list] = {}
    for op in ops:
        if op[0] == "ingest":
            _, name, value, ts = op
            seq = runtime.ingest_observation("p0", name, value, ts, backend_ts=max(ts, 0))
            data.setdefault(name, []).append((seq, ts, value))
            continue
        idx = op[1]
        snapshot = runtime.assemble_features("p0", idx)
        expected = scan_reference(runtime, data, idx)
        assert snapshot.baseline + snapshot.treatment == tuple(e[0] for e in expected)
        assert snapshot.provenance == tuple(e[1] for e in expected)
        assert snapshot.imputation_methods == tuple(e[2] for e in expected)
        assert snapshot.source_device_ts == tuple(e[3] for e in expected)


# -- decisions ----------------------------------------------------------------------


def test_healthy_decision_within_clip():
    runtime = fresh_runtime()
    ingest_all(runtime, "p0", H9 - 60_000)
    runtime.assemble_features("p0", 0)
    record = runtime.make_decision("p0", 0)
    assert record.fallback is False
    assert 0.1 <= record.pi <= 0.9
    assert record.seed == derive_decision_seed(runtime.deployment_seed, "p0", 0)
    assert record.action == decide(record.pi, record.seed)


def test_decision_requires_snapshot():
    runtime = fresh_runtime()
    with pytest.raises(StructuralAuditError):
        runtime.make_decision("p0", 0)


def test_corrupt_state_falls_back_to_uniform():
    runtime = fresh_runtime()
    runtime.assemble_features("p0", 0)
    bad = PosteriorState(np.zeros(6), np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]))
    runtime.states["p0"] = bad
    record = runtime.make_decision("p0", 0)
    assert record.fallback is True
    assert record.pi == 0.5
    assert record.fallback_reason and "NumericalStateError" in record.fallback_reason
    kinds = [r.event_type for r in runtime.ledger.records()]
    assert "ERROR" in kinds
    assert kinds[-1] == "DECISION"  # a decision is always produced


def test_fallback_decision_with_seed_zero():
    # fallback pi = 0.5 and seed 0: u ~= 0.8833 -> action 0
    assert decide(0.5, 0) == 0


def test_injected_exception_forces_fallback():
    runtime = fresh_runtime(injection={"policy_exception_prob": 1.0})
    ingest_all(runtime, "p0", H9 - 60_000)
    runtime.assemble_features("p0", 0)
    record = runtime.make_decision("p0", 0)
    assert record.fallback is True
    assert record.pi == 0.5
    assert "InjectedFailure" in record.fallback_reason


def test_decision_totality_under_always_failing_policy():
    runtime = fresh_runtime(injection={"policy_exception_prob": 1.0})
    for idx in range(4):
        runtime.assemble_features("p0", idx)
        runtime.make_decision("p0", idx)
    decisions = list(runtime.ledger.iterate(event_types={"DECISION"}))
    assert len(decisions) == 4
    assert all(events.parse_decision(r.payload).fallback for r in decisions)


def test_snapshot_always_precedes_decision():
    runtime = fresh_runtime()
    for idx in range(3):
        runtime.assemble_features("p0", idx)
        runtime.make_decision("p0", idx)
    last_snapshot = {}
    for record in runtime.ledger.records():
        if record.event_type == "FEATURE_SNAPSHOT":
            _, idx, _ = events.parse_snapshot(record.payload)
            last_snapshot[idx] = record.seq
        elif record.event_type == "DECISION":
            decision = events.parse_decision(record.payload)
            assert last_snapshot[decision.decision_index] < record.seq


# -- update cycles --------------------------------------------------------------------


def run_decision_point(runtime, pid, idx, due):
    ingest_all(runtime, pid, due - 60_000)
    runtime.assemble_features(pid, idx, backend_ts=due)
    return runtime.make_decision(pid, idx, backend_ts=due)


def test_no_outcomes_no_update_event():
    runtime = fresh_runtime()
    state = runtime.states["p0"]
    out = runtime.run_update_cycle("p0", backend_ts=H23)
    assert out is state
    assert all(r.event_type != "MODEL_UPDATE" for r in runtime.ledger.records())


def test_single_outcome_matches_update_posterior():
    runtime = fresh_runtime()
    record = run_decision_point(runtime, "p0", 0, H9)
    snapshot = runtime._snapshots[("p0", 0)][1]
    outcome_seq = runtime.ingest_outcome("p0", 0, 1.25, H9 + 1000, backend_ts=H9 + 1000)
    new_state = runtime.run_update_cycle("p0", backend_ts=H23)
    expected = update_posterior(
        init_state(runtime.model_config),
        [(snapshot, record.action, 1.25)],
        runtime.model_config,
        last_update_seq=outcome_seq,
    )
    assert canonical_serialize(new_state) == canonical_serialize(expected)
    updates = list(runtime.ledger.iterate(event_types={"MODEL_UPDATE"}))
    assert len(updates) == 1
    info = events.parse_update(updates[0].payload)
    assert info.batch_seqs == (outcome_seq,)
    assert info.post_state == canonical_serialize(expected)


def test_late_outcome_consumed_exactly_once_by_next_cycle():
    # Three-day fixture: outcome for day 0 arrives two days late and must be
    # consumed by the day-2 cycle only.
    runtime = fresh_runtime()
    run_decision_point(runtime, "p0", 0, H9)
    runtime.run_update_cycle("p0", backend_ts=H23)  # day 0: nothing arrived

    run_decision_point(runtime, "p0", 2, MS_PER_DAY + H9)
    runtime.ingest_outcome("p0", 2, 0.5, MS_PER_DAY + H9 + 1000, backend_ts=MS_PER_DAY + H9 + 1000)
    runtime.run_update_cycle("p0", backend_ts=MS_PER_DAY + H23)  # day 1: consumes idx 2

    late_seq = runtime.ingest_outcome(
        "p0", 0, 2.0, H9 + 1000, backend_ts=2 * MS_PER_DAY + H9
    )
    runtime.run_update_cycle("p0", backend_ts=2 * MS_PER_DAY + H23)  # day 2: consumes idx 0

    updates = [events.parse_update(r.payload) for r in runtime.ledger.iterate(event_types={"MODEL_UPDATE"})]
    assert len(updates) == 2
    all_consumed = [seq for info in updates for seq in info.batch_seqs]
    assert late_seq in updates[1].batch_seqs
    assert len(all_consumed) == len(set(all_consumed)) == 2


def test_fallback_decisions_feed_updates():
    # Fallback exposures are genuine randomized exposures: their outcomes
    # enter the next update batch with the logged action.
    runtime = fresh_runtime(injection={"policy_exception_prob": 1.0})
    record = run_decision_point(runtime, "p0", 0, H9)
    assert record.fallback is True
    runtime.ingest_outcome("p0", 0, 0.8, H9 + 1000, backend_ts=H9 + 1000)
    new_state = runtime.run_update_cycle("p0", backend_ts=H23)
    assert new_state.update_count == 1
    updates = list(runtime.ledger.iterate(event_types={"MODEL_UPDATE"}))
    assert len(updates) == 1


def test_unknown_participant_is_config_error():
    runtime = fresh_runtime()
    with pytest.raises(ConfigurationError):
        runtime.ingest_outcome("ghost", 0, 1.0, H9, backend_ts=H9)
    with pytest.raises(ConfigurationError):
        runtime.assemble_features("ghost", 0)
    with pytest.raises(ConfigurationError):
        runtime.run_update_cycle("ghost", backend_ts=H23)


def test_update_failure_keeps_state_and_outcomes():
    runtime = fresh_runtime()
    run_decision_point(runtime, "p0", 0, H9)
    runtime.ingest_outcome("p0", 0, float("inf"), H9 + 1000, backend_ts=H9 + 1000)
    before = runtime.states["p0"]
    after = runtime.run_update_cycle("p0", backend_ts=H23)
    assert after is before
    kinds = [r.event_type for r in runtime.ledger.records()]
    assert "MODEL_UPDATE" not in kinds
    errors = [r for r in runtime.ledger.records() if r.event_type == "ERROR"]
    assert errors and errors[-1].payload["kind"] == "update_failure"
    assert runtime._pending_outcomes["p0"]  # still pending for a later cycle


# -- version registry ----------------------------------------------------------------


def test_initial_version_registered_at_seq_one():
    runtime = fresh_runtime()
    assert runtime.registry.entries[0][0] == "v1.0.0"
    assert runtime.registry.entries[0][1] == 1  # right after the header
    records = runtime.ledger.records()
    assert records[1].event_type == "VERSION_CHANGE"


def test_mid_stream_version_change_stamps_later_events():
    runtime = fresh_runtime()
    run_decision_point(runtime, "p0", 0, H9)
    runtime.register_version("v1.0.1", "f" * 64, backend_ts=H9 + 1)
    run_decision_point(runtime, "p0", 1, H18)
    decisions = list(runtime.ledger.iterate(event_types={"DECISION"}))
    assert decisions[0].version_id == "v1.0.0"
    assert decisions[1].version_id == "v1.0.1"
    assert events.parse_decision(decisions[1].payload).version_id == "v1.0.1"


def test_duplicate_version_activation_rejected():
    runtime = fresh_runtime()
    with pytest.raises(ConfigurationError):
        runtime.register_version("v1.0.0", "f" * 64, backend_ts=1)


def test_every_event_carries_active_version():
    runtime = fresh_runtime()
    run_decision_point(runtime, "p0", 0, H9)
    runtime.register_version("v2.0.0", "a" * 64, backend_ts=H9 + 1)
    run_decision_point(runtime, "p0", 1, H18)
    switch_seq = next(
        r.seq for r in runtime.ledger.records()
        if r.event_type == "VERSION_CHANGE" and r.payload["version_id"] == "v2.0.0"
    )
    for record in runtime.ledger.records():
        expected = "v1.0.0" if record.seq < switch_seq else "v2.0.0"
        assert record.version_id == expected
