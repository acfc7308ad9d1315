import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_run_config, make_runtime, records_of
from ledgerloop.cli import main
from ledgerloop.errors import ConfigurationError, StructuralAuditError
from ledgerloop.events import StreamIndex
from ledgerloop.ledger import read_records
from ledgerloop.policy import (
    PosteriorState,
    canonical_serialize,
    decide,
    derive_decision_seed,
    init_state,
    update_posterior,
)
from ledgerloop.runtime import MS_PER_DAY, ImputationPolicy, Schedule

H9 = 9 * 3_600_000  # 09:00 in ms
H18 = 18 * 3_600_000
H23 = 23 * 3_600_000


# -- schedule -------------------------------------------------------------------


def test_schedule_day0_indices():
    sched = Schedule(decision_times=("09:00", "18:00"), update_time="23:00", trial_days=4)
    assert sched.decision_points(0) == [(0, H9), (1, H18)]


def test_schedule_day3_indices():
    sched = Schedule(decision_times=("09:00", "18:00"), update_time="23:00", trial_days=4)
    points = sched.decision_points(3)
    assert [idx for idx, _ in points] == [6, 7]
    assert points[0][1] == 3 * MS_PER_DAY + H9


def test_schedule_five_per_day():
    times = ("08:00", "11:00", "14:00", "17:00", "20:00")
    sched = Schedule(decision_times=times, update_time="23:00", trial_days=2)
    points = sched.decision_points(1)
    assert [idx for idx, _ in points] == [5, 6, 7, 8, 9]


def test_schedule_rejects_day_out_of_range():
    sched = Schedule(trial_days=2)
    with pytest.raises(ConfigurationError):
        sched.decision_points(2)


def test_schedule_rejects_unsorted_times():
    with pytest.raises(ConfigurationError):
        Schedule(decision_times=("18:00", "09:00"))


# -- ingestion and assembly -------------------------------------------------------


def fresh_runtime(path=None, **overrides):
    config = make_run_config(**overrides)
    runtime = make_runtime(config, path=path)
    runtime.start(backend_ts=0)
    return runtime


@pytest.fixture
def file_runtime(tmp_path):
    """fresh_runtime writing its ledger under tmp_path, closed after the test."""
    made = []

    def make(**overrides):
        made.append(fresh_runtime(tmp_path / f"runtime{len(made)}.ndjson", **overrides))
        return made[-1]

    yield make
    for runtime in made:
        runtime.ledger.close()


def written(runtime) -> list:
    """Every record in the runtime's ledger file, read back through the verified pass."""
    return list(read_records(runtime.ledger.path))


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


def test_duplicate_datum_uses_lowest_seq(file_runtime):
    runtime = file_runtime()
    ts = H9 - 60_000
    runtime.ingest_observation("p0", "engagement", 0.25, ts, backend_ts=ts)
    runtime.ingest_observation("p0", "engagement", 0.75, ts, backend_ts=ts)  # same key and ts
    snapshot = runtime.assemble_features("p0", 0)
    assert snapshot.treatment[2] == 0.25
    # both ingestions are in the ledger
    data_events = records_of(runtime.ledger.path, "DATA_INGESTED")
    assert len(data_events) == 2


def test_late_data_references_superseded_snapshot_and_never_mutates_it(file_runtime):
    runtime = file_runtime()
    snapshot = runtime.assemble_features("p0", 0)
    assert snapshot.provenance[5] == "default"
    snap_record = records_of(runtime.ledger.path, "FEATURE_SNAPSHOT")[0]
    line_before = snap_record.to_line()

    # ground truth arrives after the decision point it belonged to
    late_seq = runtime.ingest_observation(
        "p0", "engagement", 0.9, H9 - 60_000, backend_ts=H9 + 3_600_000
    )
    records = written(runtime)
    late = records[late_seq]
    assert late.payload.superseded_snapshot_seq == snap_record.seq

    snap_after = records[snap_record.seq]
    assert snap_after.to_line() == line_before


def test_on_time_data_has_no_superseded_reference(file_runtime):
    runtime = file_runtime()
    seq = runtime.ingest_observation("p0", "engagement", 0.9, H9 - 60_000, backend_ts=H9 - 60_000)
    assert written(runtime)[seq].payload.superseded_snapshot_seq is None


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
        default = (runtime.header.imputation.default_for(name), "default", None, None)
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
        elif age <= runtime.header.imputation.horizon:
            resolved[name] = (value, "imputed", "locf", device_ts)
        else:
            resolved[name] = default
    return [resolved[n] for n in runtime.header.features.baseline + runtime.header.features.treatment]


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
    assert record.seed == derive_decision_seed(runtime.header.deployment_seed, "p0", 0)
    assert record.action == decide(record.pi, record.seed)


def test_decision_requires_snapshot():
    runtime = fresh_runtime()
    with pytest.raises(StructuralAuditError):
        runtime.make_decision("p0", 0)


def test_corrupt_state_falls_back_to_uniform(file_runtime):
    runtime = file_runtime()
    runtime.assemble_features("p0", 0)
    bad = PosteriorState(np.zeros(6), np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0]).ravel())
    runtime.states["p0"] = bad
    record = runtime.make_decision("p0", 0)
    assert record.fallback is True
    assert record.pi == 0.5
    assert record.fallback_reason and "NumericalStateError" in record.fallback_reason
    kinds = [r.event_type for r in written(runtime)]
    assert "ERROR" in kinds
    assert kinds[-1] == "DECISION"  # a decision is always produced


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_feature_falls_back_to_uniform(tmp_path, capsys, monkeypatch, bad):
    # A non-finite datum is refused at ingest and a non-finite imputation
    # default at config load, so the value is imputed through a patched
    # default. Its pi_raw is NaN: the logic refuses it (DataError), so the
    # decision is the uniform fallback with an ERROR before it, and it
    # replays exact.
    default_for = ImputationPolicy.default_for
    monkeypatch.setattr(
        ImputationPolicy, "default_for",
        lambda self, feature: bad if feature == "engagement" else default_for(self, feature),
    )
    path = tmp_path / "ledger.ndjson"
    config = make_run_config()
    runtime = make_runtime(config, participants=("p0",), path=path)
    runtime.start(backend_ts=0)
    ts = runtime.header.schedule.due_ts(0) - 1000
    for name in runtime.header.features.names:
        if name != "engagement":
            runtime.ingest_observation("p0", name, 0.5, ts, backend_ts=ts)
    runtime.assemble_features("p0", 0)
    record = runtime.make_decision("p0", 0)
    runtime.ledger.close()
    assert record.fallback and record.pi_raw == record.pi == 0.5
    assert record.fallback_reason.startswith("DataError: pi_raw nan is not a probability")
    errors = records_of(path, "ERROR")
    assert [(e.payload["kind"], e.payload["message"]) for e in errors] == [
        ("policy_exception", record.fallback_reason)
    ]
    assert written(runtime)[-1].event_type == "DECISION"
    assert main(["replay-verify", "--ledger", str(path)]) == 0
    assert main(["monitor-report", "--replay", "--ledger", str(path), "--out", str(tmp_path / "m.txt")]) == 0
    assert "replay exact" in capsys.readouterr().out


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
    decisions = list(runtime.index.decisions.values())
    assert len(decisions) == 4
    assert all(decision.fallback for decision in decisions)


def test_snapshot_always_precedes_decision(file_runtime):
    runtime = file_runtime()
    for idx in range(3):
        runtime.assemble_features("p0", idx)
        runtime.make_decision("p0", idx)
    assert len(runtime.index.decisions) == 3
    decision_seqs = {
        (r.payload.participant_id, r.payload.decision_index): r.seq
        for r in written(runtime) if r.event_type == "DECISION"
    }
    assert decision_seqs.keys() == runtime.index.decisions.keys()
    for key, seq in decision_seqs.items():
        assert runtime.index.snapshot_seqs[key] < seq


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
    assert runtime.index.totals.updates == 0


def test_single_outcome_matches_update_posterior():
    runtime = fresh_runtime()
    record = run_decision_point(runtime, "p0", 0, H9)
    snapshot = runtime.index.snapshots[("p0", 0)]
    outcome_seq = runtime.ingest_outcome("p0", 0, 1.25, H9 + 1000, backend_ts=H9 + 1000)
    new_state = runtime.run_update_cycle("p0", backend_ts=H23)
    expected = update_posterior(
        init_state(runtime.header.model),
        [(snapshot, record.action, 1.25)],
        runtime.header.model,
        last_update_seq=outcome_seq,
    )
    assert canonical_serialize(new_state) == canonical_serialize(expected)
    assert runtime.index.totals.updates == 1
    last = runtime.ledger.last()
    assert last.event_type == "MODEL_UPDATE"
    info = last.payload
    assert info.batch_seqs == (outcome_seq,)
    assert info.post_state == canonical_serialize(expected)


def test_an_updates_rows_are_checked_once(monkeypatch):
    # The cycle's own batch check gives the rows the fold applies; the fold
    # of the update it logs does not check them again.
    runtime = fresh_runtime()
    for idx in (0, 1):
        run_decision_point(runtime, "p0", idx, H9 + idx * 1000)
        runtime.ingest_outcome("p0", idx, 0.5, H9 + 5000, backend_ts=H9 + 5000)
    calls = []
    batch = type(runtime.index).batch
    monkeypatch.setattr(type(runtime.index), "batch", lambda index, *args: calls.append(args) or batch(index, *args))
    runtime.run_update_cycle("p0", backend_ts=H23)
    info = runtime.ledger.last().payload
    assert len(info.batch_seqs) == 2 and runtime.index.totals.updates == 1
    assert calls == [("p0", info.batch_seqs, runtime.ledger.last().seq)]
    assert not runtime.index.pending["p0"] and ("p0", 0) not in runtime.index.snapshots


def test_late_outcome_consumed_exactly_once_by_next_cycle(file_runtime):
    # Three-day fixture: outcome for day 0 arrives two days late and must be
    # consumed by the day-2 cycle only.
    runtime = file_runtime()
    run_decision_point(runtime, "p0", 0, H9)
    runtime.run_update_cycle("p0", backend_ts=H23)  # day 0: nothing arrived

    run_decision_point(runtime, "p0", 2, MS_PER_DAY + H9)
    runtime.ingest_outcome("p0", 2, 0.5, MS_PER_DAY + H9 + 1000, backend_ts=MS_PER_DAY + H9 + 1000)
    runtime.run_update_cycle("p0", backend_ts=MS_PER_DAY + H23)  # day 1: consumes idx 2

    late_seq = runtime.ingest_outcome(
        "p0", 0, 2.0, H9 + 1000, backend_ts=2 * MS_PER_DAY + H9
    )
    runtime.run_update_cycle("p0", backend_ts=2 * MS_PER_DAY + H23)  # day 2: consumes idx 0

    updates = [r.payload for r in written(runtime) if r.event_type == "MODEL_UPDATE"]
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
    assert runtime.index.totals.updates == 1


def test_unknown_participant_is_a_structural_error(file_runtime):
    # A participant the HEADER lacks is refused by the fold's one rule, as
    # the record the call would write: nothing is written, and an update
    # cycle with nothing to log is refused all the same. A decision falls
    # back (the participant has no state), so its ERROR would come first.
    runtime = file_runtime()
    path = runtime.ledger.path
    calls = {
        "DATA_INGESTED": lambda: runtime.ingest_observation("ghost", "engagement", 0.5, H9, backend_ts=H9),
        "FEATURE_SNAPSHOT": lambda: runtime.assemble_features("ghost", 0),
        "DECISION": lambda: runtime.make_decision("ghost", 0),
        "OUTCOME_OBSERVED": lambda: runtime.ingest_outcome("ghost", 0, 1.0, H9, backend_ts=H9),
        "MODEL_UPDATE": lambda: runtime.run_update_cycle("ghost", backend_ts=H23),
    }
    for event_type, call in calls.items():
        before, n = path.read_bytes(), len(runtime.ledger)
        seq = n + (event_type == "DECISION")
        with pytest.raises(StructuralAuditError) as caught:
            call()
        assert str(caught.value) == f"{event_type} at seq {seq} names participant 'ghost', not one of the HEADER's"
        assert path.read_bytes() == before
        assert runtime.index == StreamIndex.fold(read_records(path))


def test_unknown_participant_observation_is_refused_before_logging():
    runtime = fresh_runtime()
    before = len(runtime.ledger)
    with pytest.raises(StructuralAuditError, match="^DATA_INGESTED at seq 2 names participant 'ghost'"):
        runtime.ingest_observation("ghost", "engagement", 0.5, H9, backend_ts=H9)
    assert len(runtime.ledger) == runtime.index.size == before


def test_outcome_without_a_decision_is_refused_before_logging():
    # The fold refuses it: an outcome of an undecided point, or of a point
    # outside the schedule, could never be consumed.
    runtime = fresh_runtime()
    n = len(runtime.ledger)
    with pytest.raises(StructuralAuditError, match=rf"^OUTCOME_OBSERVED at seq {n} has no prior DECISION of \('p0', 1\)$"):
        runtime.ingest_outcome("p0", 1, 1.0, H9, backend_ts=H9)
    with pytest.raises(StructuralAuditError, match=rf"^OUTCOME_OBSERVED at seq {n} names decision 99, not in \[0, 6\)$"):
        runtime.ingest_outcome("p0", 99, 1.0, H9, backend_ts=H9)
    assert len(runtime.ledger) == runtime.index.size == n
    run_decision_point(runtime, "p0", 0, H9)
    runtime.ingest_outcome("p0", 0, 1.0, H9 + 1000, backend_ts=H9 + 1000)
    assert runtime.run_update_cycle("p0", backend_ts=H23).update_count > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_datum_or_reward_is_refused_before_logging(bad):
    # Logged, it would fail every later update cycle of the participant.
    runtime = fresh_runtime()
    before = len(runtime.ledger)
    with pytest.raises(ConfigurationError, match=f"engagement value {bad!r} of p0 is not finite"):
        runtime.ingest_observation("p0", "engagement", bad, H9 - 1000, backend_ts=H9 - 1000)
    assert len(runtime.ledger) == runtime.index.size == before
    run_decision_point(runtime, "p0", 0, H9)
    before = len(runtime.ledger)
    with pytest.raises(ConfigurationError, match=f"reward {bad!r} for p0 decision 0 is not finite"):
        runtime.ingest_outcome("p0", 0, bad, H9 + 1000, backend_ts=H9 + 1000)
    assert len(runtime.ledger) == runtime.index.size == before
    runtime.ingest_outcome("p0", 0, 1.0, H9 + 1000, backend_ts=H9 + 1000)
    assert runtime.run_update_cycle("p0", backend_ts=H23).update_count == 1


def test_a_call_the_fold_would_refuse_writes_nothing(tmp_path, capsys):
    # The runtime checks each record with the fold's own rules before it
    # writes it, so a refused call leaves the file's bytes as they were and
    # the runtime's index the fold of that file: the file never holds a
    # record its own audit refuses.
    path = tmp_path / "runtime.ndjson"
    runtime = make_runtime(make_run_config(), path=path)
    with pytest.raises(StructuralAuditError, match="^ledger does not start with a HEADER record$"):
        runtime.register_version("v2.0.0", backend_ts=0)
    assert path.read_bytes() == b"" and runtime.index == StreamIndex()
    runtime.start(backend_ts=0)
    run_decision_point(runtime, "p0", 0, H9)
    runtime.ingest_outcome("p0", 0, 1.0, H9 + 1000, backend_ts=H9 + 1000)

    def refused(call, message):
        before = path.read_bytes()
        n = len(runtime.ledger)
        with pytest.raises(StructuralAuditError) as caught:
            call()
        assert str(caught.value) == message.format(n=n, next=n + 1)
        assert path.read_bytes() == before
        assert runtime.index == StreamIndex.fold(read_records(path))

    def always_fail(*args):
        raise ValueError("no policy")

    def refusals(decision_seq):
        refused(lambda: runtime.make_decision("p0", 0), "DECISION at seq " + decision_seq + " repeats ('p0', 0)")
        refused(lambda: runtime.assemble_features("p0", 0), "FEATURE_SNAPSHOT at seq {n} follows the DECISION of ('p0', 0)")
        refused(lambda: runtime.ingest_outcome("p0", 0, 2.0, H9 + 2000, backend_ts=H9 + 2000),
                "OUTCOME_OBSERVED at seq {n} repeats ('p0', 0)")
        refused(lambda: runtime.register_version("v1.0.0", backend_ts=H9 + 2000),
                "VERSION_CHANGE at seq {n} activates 'v1.0.0' a second time")
        refused(lambda: runtime.assemble_features("p0", 6), "FEATURE_SNAPSHOT at seq {n} names decision 6, not in [0, 6)")
        # A decision the policy fails on (for want of a snapshot, too) falls
        # back, and its ERROR would come first; the DECISION, at the seq
        # after it, is checked before either is written.
        refused(lambda: runtime.make_decision("p0", 1), "DECISION at seq {next} has no prior FEATURE_SNAPSHOT for ('p0', 1)")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runtime, "logic", dataclasses.replace(runtime.logic, action_probability=always_fail))
            refused(lambda: runtime.make_decision("p0", 0), "DECISION at seq {next} repeats ('p0', 0)")

    refusals("{n}")  # the outcome pending
    assert runtime.run_update_cycle("p0", backend_ts=H23).update_count == 1
    refusals("{next}")  # the outcome consumed, and the point's snapshot forgotten
    runtime.ledger.close()
    assert main(["replay-verify", "--ledger", str(path)]) == 0
    assert "replay exact" in capsys.readouterr().out


def test_update_failure_keeps_state_and_outcomes():
    runtime = fresh_runtime()
    run_decision_point(runtime, "p0", 0, H9)
    runtime.ingest_outcome("p0", 0, 1.0, H9 + 1000, backend_ts=H9 + 1000)
    # A precision the factor refuses makes the update fail.
    runtime.states["p0"] = before = PosteriorState(np.zeros(6), np.diag([1.0] * 5 + [-1.0]).ravel())
    after = runtime.run_update_cycle("p0", backend_ts=H23)
    assert after is before
    assert runtime.index.totals.updates == 0
    assert runtime.index.totals.update_failures == 1
    last = runtime.ledger.last()
    assert last.event_type == "ERROR" and last.payload.kind == "update_failure"
    assert runtime.index.pending["p0"]  # still pending for a later cycle


# -- version registry ----------------------------------------------------------------


def test_initial_version_registered_at_seq_one(file_runtime):
    runtime = file_runtime()
    assert runtime.index.versions[0][1] == "v1.0.0"
    assert runtime.index.versions[0][0] == 1  # right after the header
    records = written(runtime)
    assert records[1].event_type == "VERSION_CHANGE"


def test_mid_stream_version_change_stamps_later_events(file_runtime):
    runtime = file_runtime()
    run_decision_point(runtime, "p0", 0, H9)
    runtime.register_version("v1.0.1", backend_ts=H9 + 1)
    run_decision_point(runtime, "p0", 1, H18)
    first, second = [r for r in written(runtime) if r.event_type == "DECISION"]
    assert first.version_id == "v1.0.0"
    assert second.version_id == "v1.0.1"
    assert second.payload.version_id == "v1.0.1"


def test_duplicate_version_activation_rejected():
    runtime = fresh_runtime()
    with pytest.raises(StructuralAuditError, match="activates 'v1.0.0' a second time"):
        runtime.register_version("v1.0.0", backend_ts=1)


def test_every_event_carries_active_version(file_runtime):
    runtime = file_runtime()
    run_decision_point(runtime, "p0", 0, H9)
    runtime.register_version("v2.0.0", backend_ts=H9 + 1)
    run_decision_point(runtime, "p0", 1, H18)
    records = written(runtime)
    switch_seq = next(
        r.seq for r in records
        if r.event_type == "VERSION_CHANGE" and r.payload.version_id == "v2.0.0"
    )
    for record in records:
        expected = "v1.0.0" if record.seq < switch_seq else "v2.0.0"
        assert record.version_id == expected
