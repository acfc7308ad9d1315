"""The stream index the runtime keeps while it writes a ledger is the one a
reader folds from the file, so replay and the monitor audit the runtime's own
bookkeeping rather than a second reading of the records."""

import dataclasses

import yaml

import pytest

from conftest import make_run_config
from ledgerloop import twin as twin_module
from ledgerloop.errors import NumericalStateError, StructuralAuditError
from ledgerloop.cli import main
from ledgerloop.events import SnapshotInfo, StreamIndex
from ledgerloop.policy import DecisionRecord
from ledgerloop.ledger import EventEnvelope, read_records
from ledgerloop.replay import default_logic
from ledgerloop.twin import EnvironmentSpec, run_trial


def small_env(**overrides) -> EnvironmentSpec:
    base = dict(
        effect_mean=(0.5, 0.0, 0.0),
        baseline_mean=(0.2, 0.0, 0.0),
        outcome_noise_sd=0.5,
        engagement_noise_sd=0.05,
        n_participants=3,
        n_days=4,
    )
    base.update(overrides)
    return EnvironmentSpec(**base)


def test_runtime_index_equals_the_index_folded_from_its_file(tmp_path, monkeypatch):
    calls = []
    logic = default_logic()

    def third_update_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise NumericalStateError("injected update failure")
        return logic.update_posterior(*args, **kwargs)

    failing = dataclasses.replace(logic, update_posterior=third_update_fails)
    monkeypatch.setattr(twin_module, "default_logic", lambda: failing)
    config = make_run_config(
        injection={"policy_exception_prob": 0.2, "delay_geometric_p": 0.6},
        version_switch={"day": 2, "version_id": "v1.0.1"},
    )
    path = tmp_path / "trial.ndjson"
    result = run_trial(small_env(), config, 5, out_path=path)
    result.ledger.close()
    records = list(read_records(path))
    folded = StreamIndex.fold(records)

    def of_type(event_type):
        return [r for r in records if r.event_type == event_type]

    # The trial holds every case the two folds must agree on.
    assert [v for _, v in folded.versions] == ["v1.0.0", "v1.0.1"]
    assert any(r.payload.fallback for r in of_type("DECISION"))
    assert any(r.payload.superseded_snapshot_seq is not None for r in of_type("DATA_INGESTED"))
    failures = [r for r in of_type("ERROR") if r.payload.kind == "update_failure"]
    assert len(failures) == 1
    failure = failures[0]
    # The failed cycle consumed nothing: the participant's next update takes
    # the outcomes that were pending when it failed.
    pid = failure.payload.participant_id
    retry = next(
        r.payload for r in of_type("MODEL_UPDATE")
        if r.seq > failure.seq and r.payload.participant_id == pid
    )
    assert min(retry.batch_seqs) < failure.seq

    assert result.index == folded
    assert folded.size == len(records)


def repeat_first(path, event_type: str) -> int:
    """Write a one-day trial to ``path`` and append its first record of
    ``event_type`` once more, chained as any append is; the new record's seq."""
    with run_trial(small_env(n_days=1), make_run_config(), 3, out_path=path).ledger as ledger:
        first = next(r for r in read_records(path) if r.event_type == event_type)
        return ledger.append(
            first.payload,
            backend_ts=first.backend_ts,
            version_id=first.version_id,
            device_ts=first.device_ts,
        ).seq


def test_a_second_decision_for_one_point_is_a_structural_error(tmp_path):
    path = tmp_path / "trial.ndjson"
    repeat_first(path, "DECISION")
    with pytest.raises(StructuralAuditError, match="repeats"):
        StreamIndex.fold(read_records(path))


def test_a_version_activated_twice_is_a_structural_error(tmp_path):
    # The index keeps one fingerprint per version, so a second activation
    # of the same version cannot stand.
    path = tmp_path / "trial.ndjson"
    seq = repeat_first(path, "VERSION_CHANGE")
    with pytest.raises(StructuralAuditError, match=f"seq {seq} activates 'v1.0.0' a second time"):
        StreamIndex.fold(read_records(path))


def test_batch_requires_increasing_seqs():
    # The one check of an update's batch order, for the runtime's update
    # cycle and the fold alike.
    with pytest.raises(StructuralAuditError, match="seq 9 has non-increasing batch_seqs"):
        StreamIndex().batch("p1", (4, 4), 9)


def _contents(obj):
    """``obj`` and every value inside it: container members, dict keys and
    dataclass fields."""
    yield obj
    if isinstance(obj, dict):
        inner = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple)):
        inner = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        inner = ()
    for value in inner:
        yield from _contents(value)


def test_the_folded_golden_index_holds_no_envelope(tmp_path):
    # The index keeps typed values and counts, not the envelope with its
    # payload dict.
    from test_golden import GOLDEN_CONFIG

    config, path = tmp_path / "golden.yaml", tmp_path / "golden.ndjson"
    config.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    assert main(["simulate", "--config", str(config), "--out", str(path)]) == 0
    index = StreamIndex.fold(read_records(path))
    assert index.decided and index.totals.updates and index.totals.errors
    assert not [v for v in _contents(index) if isinstance(v, EventEnvelope)]
    assert all(type(v) is SnapshotInfo for v in index.snapshots.values())
    assert all(type(v) is DecisionRecord for v in index.decisions.values())


def test_the_index_keeps_only_the_points_whose_outcome_is_pending(tmp_path):
    # No loss, so every outcome arrives; delays leave some of them pending
    # after the last update cycle. Every other point's snapshot, decision
    # and outcome were consumed and forgotten.
    config = make_run_config(injection={"data_loss_prob": 0.0, "delay_geometric_p": 0.6})
    index = run_trial(small_env(), config, 6).index
    points = 3 * 4 * 2
    pending = {(o.participant_id, o.decision_index) for o in index.outcomes.values()}
    assert pending
    assert index.snapshots.keys() == index.decisions.keys() == pending
    assert len(index.snapshot_seqs) == len(index.decided) == len(index.rewarded) == points
    assert len(index.consumed) == points - len(pending)


def test_the_header_comes_first_and_only_once(tmp_path):
    path = tmp_path / "trial.ndjson"
    run_trial(small_env(n_days=1), make_run_config(), 3, out_path=path).ledger.close()
    records = list(read_records(path))
    with pytest.raises(StructuralAuditError, match="^ledger does not start with a HEADER record$"):
        StreamIndex.fold(records[1:])
    again = records[0]._replace(seq=2)
    with pytest.raises(StructuralAuditError, match="^HEADER at seq 2 is not the ledger's first record$"):
        StreamIndex.fold([*records[:2], again, *records[2:]])
