"""The stream index the runtime keeps while it writes a ledger is the one a
reader folds from the file, so replay and the monitor audit the runtime's own
bookkeeping rather than a second reading of the records."""

import dataclasses
import re
import tracemalloc
from array import array

import yaml

import pytest

from conftest import make_run_config, make_run_header
from ledgerloop import events
from ledgerloop import twin as twin_module
from ledgerloop.errors import NumericalStateError, StructuralAuditError
from ledgerloop.cli import main
from ledgerloop.events import HeaderInfo, OutcomeInfo, SnapshotInfo, StreamIndex, VersionInfo
from ledgerloop.policy import DecisionRecord
from ledgerloop.ledger import EventEnvelope, config_digest, read_records
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
    # p000's point 0 is decided and consumed by the end of the day, so the
    # fold knows only that it lies below p000's last decision, point 1.
    path = tmp_path / "trial.ndjson"
    seq = repeat_first(path, "DECISION")
    message = f"DECISION at seq {seq} names ('p000', 0), but 'p000' has decided point 1 already"
    with pytest.raises(StructuralAuditError, match=f"^{re.escape(message)}$"):
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
    elif isinstance(obj, (list, tuple, set, frozenset)):
        inner = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        inner = ()
    for value in inner:
        yield from _contents(value)


def _golden_index(tmp_path) -> StreamIndex:
    from test_golden import GOLDEN_CONFIG

    config, path = tmp_path / "golden.yaml", tmp_path / "golden.ndjson"
    config.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    assert main(["simulate", "--config", str(config), "--out", str(path)]) == 0
    index = StreamIndex.fold(read_records(path))
    assert index.totals.decisions and index.totals.updates and index.totals.errors
    return index


def test_the_folded_golden_index_holds_no_envelope(tmp_path):
    # The index keeps typed values and counts, not the envelope with its
    # payload dict.
    index = _golden_index(tmp_path)
    assert not [v for v in _contents(index) if isinstance(v, EventEnvelope)]
    assert all(type(v) is SnapshotInfo for kept in index.participants.values() for v in kept.snapshots.values())


def test_the_folded_golden_index_holds_no_decision_or_outcome_payload(tmp_path):
    # Of a decision a later record reads only its action, and of an outcome
    # its decision index and reward, so the index keeps those and not the
    # payload objects; the golden trial leaves points pending at its end.
    index = _golden_index(tmp_path)
    assert any(kept.pending for kept in index.participants.values())
    assert not [v for v in _contents(index) if isinstance(v, (DecisionRecord, OutcomeInfo))]
    for kept in index.participants.values():
        assert all(type(action) is int for action in kept.actions.values())
        assert all(type(i) is int and type(reward) is float for i, reward in kept.pending.values())


def test_a_header_costs_no_record_per_participant():
    # A participant's record is made at its first snapshot, not from the
    # HEADER's roster: folding a HEADER of 100,000 participants allocates
    # next to nothing beyond the HEADER itself, which holds the roster.
    participants = [f"p{i:06d}" for i in range(100_000)]
    header = make_run_header(make_run_config(), participants)
    record = EventEnvelope(0, "s", "test", None, 0, "v1.0.0", "HEADER",
                           HeaderInfo("s", "test", 0, header, config_digest(header)), b"", b"")
    index = StreamIndex()
    tracemalloc.start()
    try:
        index.apply(record)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1_000_000, held
    assert not index.participants and index.size == 1


def test_the_index_keeps_only_the_points_whose_outcome_is_pending(tmp_path):
    # No loss, so every outcome arrives; delays leave some of them pending
    # after the last update cycle. Every other point's snapshot, decision
    # and outcome were consumed and forgotten: a participant's record holds
    # no point beyond its outcome, and what the index keeps of every point is
    # its participant's last decision, counters, and a snapshot seq in an
    # array of machine ints. No map or set of the index is keyed by point,
    # and the one empty record that a participant with no record reads as
    # is still empty after the runtime has read it.
    config = make_run_config(injection={"data_loss_prob": 0.0, "delay_geometric_p": 0.6})
    index = run_trial(small_env(), config, 6).index
    points = 3 * 4 * 2
    assert [f.name for f in dataclasses.fields(index) if f.name in ("participants", "exception")] == [
        "participants", "exception"]
    assert not {"decided", "rewarded", "consumed"} & {f.name for f in dataclasses.fields(index)}
    point_keyed = (dict, set, frozenset)
    assert not [v for v in _contents(index) if isinstance(v, point_keyed) and any(type(k) is tuple for k in v)]
    assert sorted(index.participants) == ["p000", "p001", "p002"]
    assert any(kept.pending for kept in index.participants.values())
    for kept in index.participants.values():
        pending = sorted(i for i, _ in kept.pending.values())
        assert list(kept.pending) == sorted(kept.pending)  # in seq order
        assert sorted(kept.snapshots) == sorted(kept.actions) == sorted(kept.pending_points) == pending
        assert kept.last_decided == 4 * 2 - 1
        assert type(kept.points) is type(kept.seqs) is array and kept.points.typecode == kept.seqs.typecode == "q"
        assert list(kept.points) == list(range(4 * 2))
    assert index.totals.decisions == index.snapshots_seen == index.outcomes_seen == points
    assert index.exception is None
    assert events._UNSEEN == events.Participant()


def test_the_header_comes_first_and_only_once(tmp_path):
    path = tmp_path / "trial.ndjson"
    run_trial(small_env(n_days=1), make_run_config(), 3, out_path=path).ledger.close()
    records = list(read_records(path))
    with pytest.raises(StructuralAuditError, match="^ledger does not start with a HEADER record$"):
        StreamIndex.fold(records[1:])
    again = records[0]._replace(seq=2)
    with pytest.raises(StructuralAuditError, match="^HEADER at seq 2 is not the ledger's first record$"):
        StreamIndex.fold([*records[:2], again, *records[2:]])


class CountedIndex(int):
    """A decision index that counts its comparisons for equality: the work
    the fold does on the pending outcomes it keeps. A set or dict lookup of
    a missing index compares none, and one of a present index one."""

    compared = 0

    def __eq__(self, other):
        CountedIndex.compared += 1
        return int(self) == other

    __hash__ = int.__hash__


class CountedOutcome:
    """An OUTCOME_OBSERVED payload that counts the reads of its
    ``decision_index``, which is a :class:`CountedIndex`."""

    reads = 0

    def __init__(self, participant_id, decision_index, reward, device_ts):
        self.participant_id, self.reward, self.device_ts = participant_id, reward, device_ts
        self._index = CountedIndex(decision_index)

    @property
    def decision_index(self):
        CountedOutcome.reads += 1
        return self._index


class CountedArray(array):
    """An array that counts the elements an insert moves."""

    moved = 0

    def insert(self, i, x):
        CountedArray.moved += len(self) - i
        super().insert(i, x)


def _degraded_trial(n: int) -> list[EventEnvelope]:
    """One participant's n points, each with a snapshot, a decision and an
    outcome, and no update: every outcome stays pending, as in a trial whose
    updates keep failing."""
    config = make_run_config(schedule={"trial_days": n})
    header = make_run_header(config, ["p0"])
    payloads = [
        ("HEADER", None, HeaderInfo("s", "test", 0, header, config_digest(header))),
        ("VERSION_CHANGE", None, VersionInfo("v1.0.0", default_logic().fingerprint, None)),
    ]
    for i in range(n):
        due = config.schedule.due_ts(i)
        payloads += [
            ("FEATURE_SNAPSHOT", None, SnapshotInfo(
                (1.0,) * 3, (1.0,) * 3, ("default",) * 6, (None,) * 6, (None,) * 6, due, "p0", i)),
            ("DECISION", None, DecisionRecord("p0", i, 0.5, 0.5, i, 0, False, version_id="v1.0.0")),
            ("OUTCOME_OBSERVED", i, CountedOutcome("p0", i, 1.0, i)),
        ]
    return [
        EventEnvelope(seq, "s", "test", device_ts, 0, "v1.0.0", etype, payload, b"", b"")
        for seq, (etype, device_ts, payload) in enumerate(payloads)
    ]


def test_the_fold_does_bounded_work_per_record_on_a_degraded_trial(monkeypatch):
    # Outcomes that no update consumes once made each new outcome's repeat
    # check scan all of them, and out-of-order snapshots moved arrays: both
    # quadratic in the trial's length. Per record, the fold now reads an
    # outcome's decision index, and compares the decision indexes of the
    # pending outcomes it keeps, as often at 8,000 points as at 1,000, and a
    # snapshot moves no element of its participant's arrays.
    monkeypatch.setattr(events, "array", CountedArray)
    work = {}
    for n in (1000, 8000):
        records = _degraded_trial(n)
        CountedOutcome.reads = CountedIndex.compared = CountedArray.moved = 0
        index = StreamIndex.fold(records)
        kept = index.participants["p0"]
        assert len(kept.pending) == len(kept.pending_points) == index.outcomes_seen == n
        assert type(kept.points) is CountedArray and CountedArray.moved == 0
        work[n] = (CountedOutcome.reads / n, CountedIndex.compared / n)
    assert work[1000] == work[8000] and work[1000][0] <= 2 and work[1000][1] <= 2
