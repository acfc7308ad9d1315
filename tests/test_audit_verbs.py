"""The ledger-reading verbs on intact and broken chains.

Every verb that reads a ledger loads it through the verified read pass, so a
broken chain is an audit error (exit 2) wherever it is met, and the handle a
verb opens on the ledger under audit is closed before the verb returns.
"""

import gc
import json
import sys
import warnings

import pytest
import yaml

from conftest import BASE_CONFIG, deep_merge, first_seq, rechain
from ledgerloop.cli import main

SMALL = {"environment": {"n_participants": 2, "n_days": 2}}


@pytest.fixture
def ledger_path(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(deep_merge(BASE_CONFIG, SMALL)))
    path = tmp_path / "trial.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(path)]) == 0
    return path


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
    for argv in (["replay-verify"], ["ledger-inspect", "--seq", "0"]):
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
