"""The ledger-reading verbs on intact and broken chains.

Every verb that reads a ledger loads it through the verified read pass, so a
broken chain is an audit error (exit 2) wherever it is met, and the handle a
verb opens on the ledger under audit is closed before the verb returns.
"""

import gc
import hashlib
import json
import sys
import warnings

import pytest
import yaml

from conftest import (
    BASE_CONFIG, deep_merge, due_ts, first_seq, index_of, rechain, records_of, relabel, snapshot_ahead,
)
from ledgerloop.cli import main
from ledgerloop.errors import StructuralAuditError
from ledgerloop.events import ErrorInfo
from ledgerloop.ledger import config_digest, encode_float

SMALL = {"environment": {"n_participants": 2, "n_days": 2}}


def _simulate(tmp_path, *flags):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(deep_merge(BASE_CONFIG, SMALL)))
    path = tmp_path / "trial.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(path), *flags]) == 0
    return path


@pytest.fixture
def ledger_path(tmp_path):
    return _simulate(tmp_path)


def _flip_hash_byte(path, seq):
    """Change one hex digit of record ``seq``'s own hash; the line stays
    valid JSON, so only the chain check can catch it."""
    lines = path.read_bytes().splitlines()
    start = lines[seq].index(b',"hash":"') + len(b',"hash":"')
    line = bytearray(lines[seq])
    line[start] = ord("0") if line[start] != ord("0") else ord("1")
    lines[seq] = bytes(line)
    path.write_bytes(b"\n".join(lines) + b"\n")


def test_verbs_close_the_ledger_they_read(tmp_path, ledger_path, monkeypatch, capsys):
    # A ResourceWarning raised as an error inside a finalizer cannot
    # propagate; it reaches sys.unraisablehook, so collect it there.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    config = tmp_path / "more.yaml"
    config.write_text(yaml.safe_dump(deep_merge(BASE_CONFIG, SMALL)))
    rules = tmp_path / "rules.yaml"
    rules.write_text(yaml.safe_dump({"rules": [
        {"metric": "fallback_rate", "comparator": ">=", "threshold": 0, "window": "overall"},
    ]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "b.ndjson")]) == 0
        assert main(["replay-verify", "--ledger", str(ledger_path),
                     "--out", str(tmp_path / "div.txt")]) == 0
        assert main(["monitor-report", "--ledger", str(ledger_path),
                     "--out", str(tmp_path / "mon.txt"), "--replay"]) == 0
        assert main(["monitor-report", "--ledger", str(ledger_path), "--out",
                     str(tmp_path / "alerts.txt"), "--rules", str(rules), "--append-alerts"]) == 0
        assert main(["ledger-inspect", "--ledger", str(ledger_path), "--seq", "1"]) == 0
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []
    assert b'"event_type":"ALERT"' in ledger_path.read_bytes()


def test_ledger_inspect_on_a_broken_chain(ledger_path, capsys):
    n = len(ledger_path.read_bytes().splitlines())
    bad = n // 2
    _flip_hash_byte(ledger_path, bad)
    capsys.readouterr()

    # Records before the break verified, so they print.
    assert main(["ledger-inspect", "--ledger", str(ledger_path), "--seq", str(bad - 1)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out.split("# decoded floats:")[0])["seq"] == bad - 1
    assert captured.err == ""

    # The broken record and everything after it do not.
    for seq in (bad, bad + 1, n - 1):
        assert main(["ledger-inspect", "--ledger", str(ledger_path), "--seq", str(seq)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"audit error: hash chain broken, first_bad_seq={bad}\n"


def test_monitor_report_on_a_broken_chain_writes_nothing(tmp_path, ledger_path, capsys):
    _flip_hash_byte(ledger_path, 3)
    out = tmp_path / "mon.txt"
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out), "--replay"]) == 2
    assert "first_bad_seq=3" in capsys.readouterr().err
    assert not out.exists()


def test_replay_verify_on_a_broken_chain_keeps_its_message(tmp_path, ledger_path, capsys):
    _flip_hash_byte(ledger_path, 5)
    out = tmp_path / "div.txt"
    assert main(["replay-verify", "--ledger", str(ledger_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "audit error: hash chain broken, first_bad_seq=5\n"
    assert not out.exists()


def test_replay_verify_refuses_an_existing_out_before_reading_the_ledger(
    tmp_path, ledger_path, monkeypatch, capsys
):
    from ledgerloop import ledger

    def refuse(*args, **kwargs):
        raise AssertionError("the ledger was read")

    monkeypatch.setattr(ledger, "read_records", refuse)
    out = tmp_path / "div.txt"
    out.write_bytes(b"kept")
    assert main(["replay-verify", "--ledger", str(ledger_path), "--out", str(out)]) == 74
    assert capsys.readouterr().err == (
        f"storage error: output {out} already exists; reruns require a new output path\n"
    )
    assert out.read_bytes() == b"kept"


def _set(**members):
    return lambda record: record.update(members)


@pytest.mark.parametrize(
    "event_type, edit",
    [
        ("DECISION", _set(event_type="ERROR", payload=["x"])),
        ("VERSION_CHANGE", _set(payload="x")),
        ("DECISION", _set(version_id=7)),
        ("DECISION", _set(stream_id=None)),
    ],
    ids=["list-payload", "string-payload", "int-version_id", "null-stream_id"],
)
def test_malformed_envelope_is_an_audit_error(tmp_path, ledger_path, capsys, event_type, edit):
    # The chain is re-derived, so only the envelope's shape can be refused.
    seq = first_seq(ledger_path, event_type)
    rechain(ledger_path, seq, edit)
    for argv in (["replay-verify"], ["monitor-report", "--out", str(tmp_path / "mon.txt"), "--replay"]):
        assert main([*argv, "--ledger", str(ledger_path)]) == 2
        assert capsys.readouterr().err == f"audit error: hash chain broken, first_bad_seq={seq}\n"
    assert not (tmp_path / "mon.txt").exists()


def test_empty_update_batch_is_an_audit_error(tmp_path, ledger_path, capsys):
    seq = first_seq(ledger_path, "MODEL_UPDATE")
    rechain(ledger_path, seq, lambda record: record["payload"].update(batch_seqs=[]))
    for argv in (["replay-verify"], ["monitor-report", "--out", str(tmp_path / "mon.txt"), "--replay"]):
        assert main([*argv, "--ledger", str(ledger_path)]) == 2
        assert capsys.readouterr().err == (
            f"audit error: MODEL_UPDATE at seq {seq} has an empty batch_seqs\n"
        )
    assert not (tmp_path / "mon.txt").exists()


def test_empty_ledger_is_an_audit_error(tmp_path, capsys):
    empty = tmp_path / "empty.ndjson"
    empty.write_bytes(b"")
    for argv in (["replay-verify"], ["ledger-inspect", "--seq", "0"],
                 ["monitor-report", "--out", str(tmp_path / "mon.txt")]):
        assert main([*argv, "--ledger", str(empty)]) == 2
        assert capsys.readouterr().err == "audit error: ledger file is empty\n"


def test_audits_need_no_write_access(tmp_path, ledger_path, monkeypatch):
    # Only an append opens the ledger file for writing: auditing a ledger the
    # process may not write to works, and appending alerts is refused.
    import builtins

    from ledgerloop import ledger as ledger_module
    from ledgerloop.ledger import read_records, verify_chain

    def no_append_open(file, mode="r", *args, **kwargs):
        if "a" in mode:
            raise PermissionError(13, "Permission denied", str(file))
        return builtins.open(file, mode, *args, **kwargs)

    rules = tmp_path / "rules.yaml"
    rules.write_text(yaml.safe_dump({"rules": [
        {"metric": "fallback_rate", "comparator": ">=", "threshold": 0, "window": "overall"},
    ]}))
    before = ledger_path.read_bytes()
    monkeypatch.setattr(ledger_module, "open", no_append_open, raising=False)
    assert main(["replay-verify", "--ledger", str(ledger_path)]) == 0
    assert main(["monitor-report", "--ledger", str(ledger_path),
                 "--out", str(tmp_path / "mon.txt"), "--replay"]) == 0
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out",
                 str(tmp_path / "refused.txt"), "--rules", str(rules), "--append-alerts"]) == 74
    assert ledger_path.read_bytes() == before

    monkeypatch.undo()
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out",
                 str(tmp_path / "alerts.txt"), "--rules", str(rules), "--append-alerts"]) == 0
    assert ledger_path.read_bytes().startswith(before)
    assert verify_chain(ledger_path) is None
    appended = list(read_records(ledger_path))[len(before.splitlines()):]
    assert [r.event_type for r in appended] == ["ALERT"]


AUDITS = (["replay-verify"], ["monitor-report", "--replay"])


def _audit(tmp_path, ledger_path, argv):
    if argv[0] == "monitor-report":
        argv = [*argv, "--out", str(tmp_path / "mon.txt")]
    return main([*argv, "--ledger", str(ledger_path)])


@pytest.mark.parametrize("event_type", ["DECISION", "FEATURE_SNAPSHOT"])
def test_non_string_participant_id_is_an_audit_error(tmp_path, ledger_path, capsys, event_type):
    seq = first_seq(ledger_path, event_type)
    rechain(ledger_path, seq, lambda record: record["payload"].update(participant_id=["x"]))
    for argv in AUDITS:
        assert _audit(tmp_path, ledger_path, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"audit error: malformed {event_type} payload: participant_id")
    assert not (tmp_path / "mon.txt").exists()


@pytest.mark.parametrize(
    "schedule",
    ["x", ["09:00"], {}, {"decision_times": [], "trial_days": 2},
     {"decision_times": "09:00", "trial_days": 2}, {"decision_times": ["09:00"], "trial_days": "two"}],
)
def test_malformed_header_schedule_is_an_audit_error(tmp_path, ledger_path, capsys, schedule):
    def set_schedule(record):
        # The digest is re-derived too, so only the schedule can be refused.
        header = record["payload"]
        header["config"]["schedule"] = schedule
        header["config_digest"] = config_digest(header["config"])

    rechain(ledger_path, 0, set_schedule)
    out = tmp_path / "mon.txt"
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("audit error: malformed HEADER config: ")
    assert not out.exists()


def test_false_header_config_digest_is_an_audit_error(tmp_path, ledger_path, capsys):
    rechain(ledger_path, 0, lambda record: record["payload"].update(config_digest="0" * 64))
    for argv in AUDITS:
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == (
            f"audit error: HEADER config_digest {'0' * 64!r} is not the digest of its config\n"
        )
    assert not (tmp_path / "mon.txt").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"participants": ["p000", "p001", "p001"]}, "participants: 'p001' is named twice"),
        ({"unchecked": 1}, "unchecked: not a member"),
        ({"environment": {"miss_prob": encode_float(2.0)}}, "environment: miss_prob must be in [0, 1]"),
        ({"environment": {"n_days": 99, "n_participants": 7}}, "environment.n_days 99 is not schedule.trial_days 2"),
        ({"environment": {"n_participants": 7}}, "environment.n_participants 7 is not the 2 participants named"),
    ],
    ids=["repeated participant", "extra member", "environment", "environment length", "environment width"],
)
def test_a_header_config_the_schema_refuses_is_an_audit_error(tmp_path, ledger_path, capsys, edit, message):
    # Each edit, with the digest re-derived, once passed every audit: the
    # monitor counted a participant named twice as two, and nothing read
    # the environment, held its sizes to the schedule's and the roster's,
    # or refused a member beside the sections.
    def set_config(record):
        config = record["payload"]["config"]
        for name, value in edit.items():
            config[name] = {**config[name], **value} if isinstance(value, dict) else value
        record["payload"]["config_digest"] = config_digest(config)

    rechain(ledger_path, 0, set_config)
    for argv in (*AUDITS, ["monitor-report"], ["ledger-inspect", "--seq", "0"]):
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr() == ("", f"audit error: malformed HEADER config: {message}\n")
    assert not (tmp_path / "mon.txt").exists()


def test_unregistered_fingerprint_is_an_audit_error(tmp_path, ledger_path, capsys):
    seq = first_seq(ledger_path, "VERSION_CHANGE")
    rechain(ledger_path, seq, lambda record: record["payload"].update(fingerprint="f" * 64))
    for argv in AUDITS:
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == (
            f"audit error: version 'v1.0.0': fingerprint {'f' * 64!r} names no registered logic\n"
        )
    assert not (tmp_path / "mon.txt").exists()


def test_audits_stream_without_loading_a_ledger(tmp_path, monkeypatch):
    # Without --append-alerts neither audit builds a Ledger, which would hold
    # every record of the file; their report bytes are the pinned ones.
    from test_golden import DIVERGENCE_SHA256, GOLDEN_CONFIG, MONITOR_SHA256

    from ledgerloop.ledger import Ledger

    config = tmp_path / "golden.yaml"
    config.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    path = tmp_path / "golden.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(path)]) == 0

    def refuse(cls, *args, **kwargs):
        raise AssertionError("Ledger.open called by an audit")

    monkeypatch.setattr(Ledger, "open", classmethod(refuse))
    divergence, monitor = tmp_path / "div.txt", tmp_path / "mon.txt"
    assert main(["replay-verify", "--ledger", str(path), "--out", str(divergence)]) == 0
    assert main(["monitor-report", "--ledger", str(path), "--out", str(monitor), "--replay"]) == 0
    assert hashlib.sha256(divergence.read_bytes()).hexdigest() == DIVERGENCE_SHA256
    assert hashlib.sha256(monitor.read_bytes()).hexdigest() == MONITOR_SHA256


def test_structural_error_before_a_chain_break_wins(tmp_path, ledger_path, capsys):
    # Problems are reported in seq order: the fold meets the empty batch
    # before the read pass reaches the broken hash further on.
    seq = first_seq(ledger_path, "MODEL_UPDATE")
    rechain(ledger_path, seq, lambda record: record["payload"].update(batch_seqs=[]))
    n = len(ledger_path.read_bytes().splitlines())
    assert seq < n - 1
    _flip_hash_byte(ledger_path, n - 1)
    for argv in AUDITS:
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == (
            f"audit error: MODEL_UPDATE at seq {seq} has an empty batch_seqs\n"
        )


def test_chain_break_before_a_structural_error_wins(tmp_path, ledger_path, capsys):
    seq = first_seq(ledger_path, "MODEL_UPDATE")
    rechain(ledger_path, seq, lambda record: record["payload"].update(batch_seqs=[]))
    _flip_hash_byte(ledger_path, seq - 1)
    for argv in AUDITS:
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == (
            f"audit error: hash chain broken, first_bad_seq={seq - 1}\n"
        )


def test_append_alerts_refuses_a_ledger_that_changed(tmp_path, ledger_path, monkeypatch, capsys):
    # --append-alerts loads the ledger again after the fold; if the file then
    # holds another number of records, the alerts would not belong to the
    # audited stream, so nothing is appended and nothing is written.
    from ledgerloop.ledger import Ledger

    rules = tmp_path / "rules.yaml"
    rules.write_text(yaml.safe_dump({"rules": [
        {"metric": "fallback_rate", "comparator": ">=", "threshold": 0, "window": "overall"},
    ]}))
    original_open = Ledger.open.__func__

    def open_after_a_write(cls, path):
        opened = original_open(cls, path)
        last = opened.last()
        opened.append(ErrorInfo("late_writer", "appended during the audit"), last.backend_ts, last.version_id)
        return opened

    monkeypatch.setattr(Ledger, "open", classmethod(open_after_a_write))
    before = ledger_path.read_bytes()
    out = tmp_path / "alerts.txt"
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out),
                 "--rules", str(rules), "--append-alerts"]) == 2
    n = len(before.splitlines())
    assert capsys.readouterr().err == (
        f"audit error: {ledger_path} holds {n + 1} records, but {n} were audited; "
        "it changed during the audit\n"
    )
    assert not out.exists()
    assert b'"event_type":"ALERT"' not in ledger_path.read_bytes()


def _every_record(edit):
    def apply(path):
        for seq in range(len(path.read_bytes().splitlines())):
            rechain(path, seq, edit)
    return apply


def _first(event_type, edit):
    return lambda path: rechain(path, first_seq(path, event_type), edit)


def _header_payload(**members):
    return lambda path: rechain(path, 0, lambda record: record["payload"].update(members))


# Edits that keep every record readable but break what the fold checks of a
# ledger as a whole: one stream in one profile, one config, one version
# timeline. Each: the edit, the seq it is met at, and the audit line.
STAMPED = "stamped stream {!r} in profile {!r}, but the HEADER payload names stream {!r} in profile {!r}"
STREAM = "env-candidate-seed42"
FOLD_EDITS = {
    "decision-profile": (
        _first("DECISION", _set(environment_profile="prod-sim")), "DECISION",
        "DECISION at seq {seq} is " + STAMPED.format(STREAM, "prod-sim", STREAM, "test"),
    ),
    "decision-stream": (
        _first("DECISION", _set(stream_id="other")), "DECISION",
        "DECISION at seq {seq} is " + STAMPED.format("other", "test", STREAM, "test"),
    ),
    "header-payload-profile": (
        _header_payload(environment_profile="dev"), "HEADER",
        "HEADER at seq 0 is " + STAMPED.format(STREAM, "test", STREAM, "dev"),
    ),
    "header-payload-stream": (
        _header_payload(stream_id="other"), "HEADER",
        "HEADER at seq 0 is " + STAMPED.format(STREAM, "test", "other", "test"),
    ),
    "every-envelope-profile": (
        _every_record(_set(environment_profile="nonsense")), "HEADER",
        "HEADER at seq 0 is " + STAMPED.format(STREAM, "nonsense", STREAM, "test"),
    ),
    "unknown-profile-throughout": (
        lambda path: (_every_record(_set(environment_profile="nonsense"))(path),
                      _header_payload(environment_profile="nonsense")(path)),
        "HEADER", "HEADER at seq 0 names profile 'nonsense', not one of dev/test/prod-sim",
    ),
    "false-config_digest": (
        _header_payload(config_digest="0" * 64), "HEADER",
        f"HEADER config_digest {'0' * 64!r} is not the digest of its config",
    ),
    "previous-version": (
        _first("VERSION_CHANGE", lambda record: record["payload"].update(previous_version_id="v0.9.9")),
        "VERSION_CHANGE", "VERSION_CHANGE at seq {seq} names previous version 'v0.9.9', not None",
    ),
    # A DATA_INGESTED stamped with a version the ledger never activates: the
    # monitor alone accepted it.
    "unactivated-stamp": (
        _first("DATA_INGESTED", _set(version_id="bogus")), "DATA_INGESTED",
        "version 'bogus' stamped at seq {seq} is never activated",
    ),
    "no-version-change": (
        _first("VERSION_CHANGE", _set(event_type="ERROR", payload={
            "kind": "update_failure", "message": "y", "participant_id": None, "decision_index": None})),
        "DECISION", "DECISION at seq {seq} has no VERSION_CHANGE before it",
    ),
}


@pytest.mark.parametrize("name", sorted(FOLD_EDITS))
def test_the_fold_refuses_a_ledger_that_is_not_one_stream(tmp_path, ledger_path, capsys, name):
    # Every record still passes the read pass; only the fold, which every
    # audit verb shares, can refuse the edit, and it names the record.
    edit, event_type, message = FOLD_EDITS[name]
    seq = first_seq(ledger_path, event_type)
    edit(ledger_path)
    message = message.format(seq=seq)
    with pytest.raises(StructuralAuditError) as caught:
        index_of(ledger_path)
    assert str(caught.value) == message
    for argv in (*AUDITS, ["monitor-report"]):
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == f"audit error: {message}\n"
    assert not (tmp_path / "mon.txt").exists()


def test_the_fold_refuses_a_participant_the_header_lacks(tmp_path, ledger_path, capsys):
    # p001's snapshot, decision and outcome of point 3 re-labelled as those
    # of p999, whom the HEADER does not name: the monitor once counted that
    # decision and reported full coverage, and replay found a seed diff only.
    seq = relabel(ledger_path, "p001", 3, "p999")
    message = f"FEATURE_SNAPSHOT at seq {seq} names participant 'p999', not one of the HEADER's"
    with pytest.raises(StructuralAuditError) as caught:
        index_of(ledger_path)
    assert str(caught.value) == message
    for argv in (*AUDITS, ["monitor-report"]):
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == f"audit error: {message}\n"
    assert not (tmp_path / "mon.txt").exists()


def _point(event_type, participant_id, decision_index):
    return lambda path: first_seq(
        path, event_type,
        lambda payload: (payload["participant_id"], payload["decision_index"]) == (participant_id, decision_index),
    )


def _last(event_type):
    return lambda path: records_of(path, event_type)[-1].seq


# Edits that re-label a record as that of another point of the 2x2 trial
# (4 points per participant). The later snapshot of p000 re-labelled as that
# of its decision 0, which is decided by then, and the outcome of p000's
# decision 2 re-labelled as that of its decision 0, whose outcome the first
# update consumed, give a point a second snapshot or outcome. The fold keeps
# only each participant's last decision of the points it has forgotten, so
# an outcome of a consumed point below it, and a decision below it, are
# refused without naming a repeat. The first
# snapshot re-labelled as that of a point outside the schedule, or of a later
# point, which leaves the DECISION right after it ({next}) without one; the
# last outcome re-labelled outside the schedule, where it could never be
# consumed; and the first outcome re-labelled as that of a point not yet
# decided, were each accepted by some audit verb once. Each: the seq of the
# record re-labelled, its new decision index, and the fold's refusal.
POINT_EDITS = {
    "snapshot-after-its-decision": (
        _point("FEATURE_SNAPSHOT", "p000", 1), 0,
        "FEATURE_SNAPSHOT at seq {seq} follows the DECISION of ('p000', 0)",
    ),
    "second-outcome": (
        _point("OUTCOME_OBSERVED", "p000", 2), 0,
        "OUTCOME_OBSERVED at seq {seq} names ('p000', 0), which has no DECISION awaiting its outcome",
    ),
    "snapshot-outside-the-schedule": (
        _point("FEATURE_SNAPSHOT", "p000", 0), 9999,
        "FEATURE_SNAPSHOT at seq {seq} names decision 9999, not in [0, 4)",
    ),
    "decision-without-its-snapshot": (
        _point("FEATURE_SNAPSHOT", "p000", 0), 3,
        "DECISION at seq {next} has no prior FEATURE_SNAPSHOT for ('p000', 0)",
    ),
    "orphan-outcome": (
        _last("OUTCOME_OBSERVED"), 9999,
        "OUTCOME_OBSERVED at seq {seq} names decision 9999, not in [0, 4)",
    ),
    "outcome-before-its-decision": (
        _point("OUTCOME_OBSERVED", "p000", 0), 3,
        "OUTCOME_OBSERVED at seq {seq} has no prior DECISION of ('p000', 3)",
    ),
    "decision-below-the-last-decision": (
        _point("DECISION", "p000", 2), 0,
        "DECISION at seq {seq} names ('p000', 0), but 'p000' has decided point 1 already",
    ),
    "outcome-of-the-last-consumed-point": (
        _point("OUTCOME_OBSERVED", "p001", 3), 1,
        "OUTCOME_OBSERVED at seq {seq} names ('p001', 1), which has no DECISION awaiting its outcome",
    ),
}


@pytest.mark.parametrize("name", sorted(POINT_EDITS))
def test_the_fold_refuses_a_second_snapshot_or_outcome_of_a_point(tmp_path, ledger_path, capsys, name):
    # The fold keeps a point's snapshot only until its decision, and its
    # outcome only until an update consumes it, so a second one is refused
    # where it is met, as is a record of a point that is not due, by both
    # audits and by the monitor without replay, with one line.
    seq_of, decision_index, message = POINT_EDITS[name]
    seq = seq_of(ledger_path)
    relabelled = {"decision_index": decision_index}
    if json.loads(ledger_path.read_bytes().splitlines()[seq])["event_type"] == "FEATURE_SNAPSHOT":
        relabelled["assembled_ts"] = due_ts(ledger_path, decision_index)  # as the runtime assembles it
    rechain(ledger_path, seq, lambda record: record["payload"].update(relabelled))
    message = message.format(seq=seq, next=seq + 1)
    with pytest.raises(StructuralAuditError) as caught:
        index_of(ledger_path)
    assert str(caught.value) == message
    for argv in (*AUDITS, ["monitor-report"]):
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == f"audit error: {message}\n"
    assert not (tmp_path / "mon.txt").exists()
    assert main(["ledger-inspect", "--ledger", str(ledger_path), "--seq", str(seq)]) == 0
    assert json.loads(capsys.readouterr().out.split("# decoded floats:")[0])["payload"]["decision_index"] == decision_index


def _edited(event_type, edit, where=lambda payload: True):
    def apply(path):
        seq = first_seq(path, event_type, where)
        rechain(path, seq, edit)
        return seq
    return apply


def _datum_as_error(**members):
    """The first DATA_INGESTED record turned into an ERROR of ``members``."""
    payload = {"message": "nothing failed", "participant_id": "p000", **members}
    return _edited("DATA_INGESTED", _set(event_type="ERROR", payload=payload))


def _last_as_error(path):
    """The last record turned into a policy_exception ERROR; its seq."""
    seq = len(path.read_bytes().splitlines()) - 1
    payload = {"kind": "policy_exception", "message": "x", "participant_id": "p001", "decision_index": 3}
    rechain(path, seq, _set(event_type="ERROR", payload=payload))
    return seq


# Edits of what the runtime always writes one way, each of which once passed
# every audit verb: a payload's device_ts apart from its envelope's, in
# either copy; a datum naming as superseded a snapshot other than the last
# of its window's point (the HEADER, seq 0, is none); an ERROR of a kind
# the runtime never writes, which the
# monitor's update_failure count reads, or of a point outside the schedule;
# an update_failure ERROR of a participant with no pending outcome, which no
# update cycle writes and which that count reads too;
# an imputation method on an observed entry; a snapshot of p000's point 1
# after a copy of it naming point 3 (a DATA_INGESTED turned into that copy);
# a snapshot assembled 1 ms after its point's due time; a computed decision
# relabelled as a fallback of pi 1/2, which masks a divergent one; and a
# policy_exception ERROR that no fallback DECISION follows, or that ends
# the ledger. Each: the edit, which returns the seq of the record the fold
# refuses, and the refusal, formatted with that record as ``record``.
RULE_EDITS = {
    "payload-device_ts": (
        _edited("DATA_INGESTED", lambda record: record["payload"].update(device_ts=0)),
        "DATA_INGESTED at seq {seq} carries device_ts 0 in its payload but {record[device_ts]} in its envelope",
    ),
    "envelope-device_ts": (
        _edited("OUTCOME_OBSERVED", _set(device_ts=None)),
        "OUTCOME_OBSERVED at seq {seq} carries device_ts {record[payload][device_ts]} in its payload "
        "but None in its envelope",
    ),
    "superseded_snapshot_seq": (
        _edited("DATA_INGESTED", lambda record: record["payload"].update(superseded_snapshot_seq=0)),
        "DATA_INGESTED at seq {seq} superseded_snapshot_seq: expected None for point 0, got 0",
    ),
    "error-kind": (
        _datum_as_error(kind="anything at all", decision_index=None),
        "ERROR at seq {seq} kind: expected one of policy_exception/update_failure, got 'anything at all'",
    ),
    "orphan-update_failure": (
        _datum_as_error(kind="update_failure", decision_index=None),
        "ERROR at seq {seq} is an update_failure of 'p000', which has no pending outcome",
    ),
    "error-outside-the-schedule": (
        _datum_as_error(kind="policy_exception", decision_index=9999),
        "ERROR at seq {seq} names decision 9999, not in [0, 4)",
    ),
    "imputation-method": (
        _edited("FEATURE_SNAPSHOT", lambda record: record["payload"]["imputation_methods"].__setitem__(0, "locf"),
                lambda payload: payload["provenance"][0] == "observed"),
        "FEATURE_SNAPSHOT at seq {seq} imputation_methods[0]: expected None for tag 'observed', got 'locf'",
    ),
    "snapshot-below-the-last": (
        lambda path: snapshot_ahead(path, "p000", 1, 3),
        "FEATURE_SNAPSHOT at seq {seq} names ('p000', 1), but 'p000' has a snapshot of point 3 already",
    ),
    "assembled_ts": (
        _edited("FEATURE_SNAPSHOT", lambda record: record["payload"].update(assembled_ts=9 * 3_600_000 + 1)),
        "FEATURE_SNAPSHOT at seq {seq} assembled_ts: expected 32400000, the due time of point 0, got 32400001",
    ),
    "fallback-without-its-error": (
        _edited("DECISION", lambda record: record["payload"].update(
            fallback=True, fallback_reason="masked", pi=encode_float(0.5), pi_raw=encode_float(0.5))),
        "DECISION at seq {seq} is a fallback with no policy_exception ERROR before it",
    ),
    "error-without-its-fallback": (
        lambda path: _datum_as_error(kind="policy_exception", decision_index=0)(path) + 1,
        "{record[event_type]} at seq {seq} follows the policy_exception ERROR of ('p000', 0), "
        "not its fallback DECISION",
    ),
    "error-at-the-end": (
        _last_as_error,
        "ERROR at seq {seq} is a policy_exception with no DECISION after it",
    ),
}

# Edits of the first fallback DECISION of a 2x2 trial whose every decision
# is a fallback, each one after its policy_exception ERROR: the decision
# flipped to no fallback, which leaves the ERROR before a computed
# decision, and its reason made another than the ERROR's message.
FALLBACK_EDITS = {
    "error-before-a-computed-decision": (
        _edited("DECISION", lambda record: record["payload"].update(fallback=False, fallback_reason=None)),
        "DECISION at seq {seq} follows the policy_exception ERROR of ('p000', 0), not its fallback DECISION",
    ),
    "fallback-reason": (
        _edited("DECISION", lambda record: record["payload"].update(fallback_reason="another reason")),
        "DECISION at seq {seq} has a fallback_reason other than its ERROR's message",
    ),
}


@pytest.mark.parametrize("name", sorted(RULE_EDITS) + sorted(FALLBACK_EDITS))
def test_the_fold_refuses_what_the_runtime_never_writes(tmp_path, capsys, name):
    # Every record still passes the read pass; the fold refuses the one that
    # breaks the rule, with one line from both audits and the monitor
    # without replay, and ledger-inspect, which does not fold, prints it.
    if name in RULE_EDITS:
        (edit, message), ledger_path = RULE_EDITS[name], _simulate(tmp_path)
    else:
        (edit, message), ledger_path = FALLBACK_EDITS[name], _simulate(tmp_path, "--inject", "policy_exception_prob=1")
    seq = edit(ledger_path)
    message = message.format(seq=seq, record=json.loads(ledger_path.read_bytes().splitlines()[seq]))
    with pytest.raises(StructuralAuditError) as caught:
        index_of(ledger_path)
    assert str(caught.value) == message
    for argv in (*AUDITS, ["monitor-report"]):
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == f"audit error: {message}\n"
    assert not (tmp_path / "mon.txt").exists()
    assert main(["ledger-inspect", "--ledger", str(ledger_path), "--seq", str(seq)]) == 0


def _rewrite_pair(path):
    """The golden ledger's first policy_exception ERROR (seq 6) and its
    fallback DECISION (seq 7), each with "nothing failed" as its reason."""
    assert [r.seq for r in records_of(path, "ERROR")][0] == 6
    rechain(path, 6, lambda record: record["payload"].update(message="nothing failed"))
    rechain(path, 7, lambda record: record["payload"].update(fallback_reason="nothing failed"))


def _raise_gate(path):
    """The HEADER's policy_exception_prob set to 1/2, its digest re-derived."""
    def edit(record):
        config = record["payload"]["config"]
        config["injection"]["policy_exception_prob"] = encode_float(0.5)
        record["payload"]["config_digest"] = config_digest(config)

    rechain(path, 0, edit)


# Edits of the golden ledger that keep every fallback in the shape the fold
# requires, each of which once replayed as exact: a policy_exception pair
# whose reason is rewritten in both records, and a HEADER that raises the
# injection gate of a ledger written with none. Each: the injection the
# ledger is simulated with, the edit, and the first diff, whose seq is the
# first divergent one.
DERIVED_EDITS = {
    "rewritten-pair": ({}, _rewrite_pair, {
        "seq": 7, "path": "fallback_reason", "logged": "nothing failed",
        "recomputed": "InjectedFailure: injected policy exception",
    }),
    "raised-gate": ({"policy_exception_prob": 0.0}, _raise_gate, {
        "seq": 6, "path": "pi_raw", "logged": encode_float(0.5), "recomputed": "error:InjectedFailure",
    }),
}


@pytest.mark.parametrize("name", sorted(DERIVED_EDITS))
def test_replay_derives_each_fallback(tmp_path, capsys, name):
    # Replay runs the runtime's decision step again, injection gate
    # included, so a fallback that did not happen as logged, or a decision
    # the gate would have failed, diverges; the fold, which checks only the
    # shape of a fallback, accepts both, as the monitor without replay does.
    from test_golden import GOLDEN_CONFIG

    injection, edit, first = DERIVED_EDITS[name]
    config = tmp_path / "golden.yaml"
    config.write_text(yaml.safe_dump(deep_merge(GOLDEN_CONFIG, {"injection": injection})))
    path = tmp_path / "golden.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(path)]) == 0
    edit(path)
    capsys.readouterr()
    divergence, replayed = tmp_path / "divergence.txt", tmp_path / "replayed.txt"
    assert main(["replay-verify", "--ledger", str(path), "--out", str(divergence)]) == 1
    assert capsys.readouterr().err.startswith(f"replay diverged: first_divergent_seq={first['seq']} (")
    assert divergence.read_bytes().splitlines()[2] == json.dumps(first, sort_keys=True, separators=(",", ":")).encode()
    assert main(["monitor-report", "--replay", "--ledger", str(path), "--out", str(replayed)]) == 1
    assert f'"first_divergent_seq":{first["seq"]},"kind":"replay"'.encode() in replayed.read_bytes()
    assert main(["monitor-report", "--ledger", str(path), "--out", str(tmp_path / "monitor.txt")]) == 0


def _update(participant_id, nth):
    return lambda path: [r.seq for r in records_of(path, "MODEL_UPDATE")
                         if r.payload["participant_id"] == participant_id][nth]


# Seqs added to an update's batch of the 2x2 trial. The fold keeps only the
# pending outcomes, so an outcome an update consumed, whoever's it was, is
# refused as any other record that is no pending outcome is; a pending one
# of another participant keeps its own text. Each: the update, the seq
# added, and the refusal's end.
BATCH_EDITS = {
    "own-consumed-outcome": (_update("p001", -1), _point("OUTCOME_OBSERVED", "p001", 0),
                             "references seq {added}, which is not a pending OUTCOME_OBSERVED event"),
    "others-consumed-outcome": (_update("p001", -1), _point("OUTCOME_OBSERVED", "p000", 0),
                                "references seq {added}, which is not a pending OUTCOME_OBSERVED event"),
    "another-event": (_update("p001", -1), lambda path: first_seq(path, "DECISION"),
                      "references seq {added}, which is not a pending OUTCOME_OBSERVED event"),
    "others-pending-outcome": (_update("p000", -1), _point("OUTCOME_OBSERVED", "p001", 2),
                               "has outcome seq {added} of another participant"),
}


@pytest.mark.parametrize("name", sorted(BATCH_EDITS))
def test_the_fold_refuses_a_batch_seq_that_is_no_pending_outcome_of_its_participant(
    tmp_path, ledger_path, capsys, name
):
    update_of, added_of, problem = BATCH_EDITS[name]
    seq, added = update_of(ledger_path), added_of(ledger_path)
    rechain(ledger_path, seq, lambda record: record["payload"].update(
        batch_seqs=sorted([added, *record["payload"]["batch_seqs"]])))
    message = f"MODEL_UPDATE at seq {seq} " + problem.format(added=added)
    with pytest.raises(StructuralAuditError) as caught:
        index_of(ledger_path)
    assert str(caught.value) == message
    for argv in (*AUDITS, ["monitor-report"]):
        assert _audit(tmp_path, ledger_path, argv) == 2
        assert capsys.readouterr().err == f"audit error: {message}\n"
    assert not (tmp_path / "mon.txt").exists()


def test_ledger_inspect_prints_a_record_of_another_stream(ledger_path, capsys):
    # ledger-inspect reads records, it does not fold them, so a record the
    # audits refuse can still be looked at.
    seq = first_seq(ledger_path, "DECISION")
    rechain(ledger_path, seq, _set(environment_profile="prod-sim", stream_id="other"))
    assert main(["ledger-inspect", "--ledger", str(ledger_path), "--seq", str(seq)]) == 0
    captured = capsys.readouterr()
    shown = json.loads(captured.out.split("# decoded floats:")[0])
    assert (shown["seq"], shown["stream_id"], shown["environment_profile"]) == (seq, "other", "prod-sim")
    assert captured.err == ""


def test_an_odd_length_post_state_is_one_short_audit_line(tmp_path, ledger_path, capsys):
    seq = first_seq(ledger_path, "MODEL_UPDATE")
    rechain(ledger_path, seq, lambda record: record["payload"].update(
        post_state=record["payload"]["post_state"] + "a"))
    for argv in AUDITS:
        assert _audit(tmp_path, ledger_path, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("audit error: malformed MODEL_UPDATE payload: post_state: expected lowercase hex")
        assert len(err.splitlines()) == 1 and len(err) < 200
