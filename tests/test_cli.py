import json

import pytest
import yaml

from conftest import BASE_CONFIG, deep_merge
from ledgerloop.cli import main
from ledgerloop.ledger import compute_record_hash


@pytest.fixture
def config_path(tmp_path):
    def write(overrides=None, name="run.yaml"):
        raw = deep_merge(BASE_CONFIG, overrides or {})
        path = tmp_path / name
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    return write


def test_simulate_then_replay_verify_exit_zero(tmp_path, config_path, capsys):
    ledger_path = tmp_path / "trial.ndjson"
    assert main(["simulate", "--config", config_path(), "--out", str(ledger_path)]) == 0
    assert ledger_path.exists()
    assert main(["replay-verify", "--ledger", str(ledger_path)]) == 0
    out = capsys.readouterr().out
    assert "replay exact" in out


def test_replay_verify_on_corrupted_ledger(tmp_path, config_path, capsys):
    ledger_path = tmp_path / "trial.ndjson"
    main(["simulate", "--config", config_path(), "--out", str(ledger_path)])
    data = bytearray(ledger_path.read_bytes())
    data[len(data) // 2] ^= 0x01
    ledger_path.write_bytes(bytes(data))
    code = main(["replay-verify", "--ledger", str(ledger_path)])
    assert code in (1, 2)
    err = capsys.readouterr().err
    assert "first_bad_seq" in err or "diverged" in err


def test_replay_verify_restricted_versions_is_audit_error(tmp_path, config_path, capsys):
    ledger_path = tmp_path / "trial.ndjson"
    main(["simulate", "--config", config_path(), "--out", str(ledger_path)])
    code = main(["replay-verify", "--ledger", str(ledger_path), "--versions", "v0.0.9"])
    assert code == 2
    assert "v1.0.0" in capsys.readouterr().err


def test_twin_run_deterministic_reports(tmp_path, config_path):
    cfg = config_path({"grid": {"effect_mean": [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]}})
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert main(["twin-run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["twin-run", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_twin_tune_writes_ranked_report(tmp_path, config_path):
    cfg = config_path(
        {"tuning": {"prior_precision_scale": [0.5, 1.0], "noise_variance": [1.0], "seeds": [1, 2]}}
    )
    out = tmp_path / "tune.txt"
    assert main(["twin-tune", "--config", cfg, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.startswith(b"# ledgerloop tuning report v1\n")
    assert b'"rank":0' in data


def test_invalid_config_exit_64_names_field(tmp_path, config_path, capsys):
    cfg = config_path({"model": {"clip_min": 0.7}})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.ndjson")])
    assert code == 64
    assert "clip" in capsys.readouterr().err


def test_existing_output_refused_with_74(tmp_path, config_path, capsys):
    ledger_path = tmp_path / "trial.ndjson"
    assert main(["simulate", "--config", config_path(), "--out", str(ledger_path)]) == 0
    code = main(["simulate", "--config", config_path(), "--out", str(ledger_path)])
    assert code == 74
    assert "already exists" in capsys.readouterr().err


def test_unknown_verb_exit_64(capsys):
    assert main(["frobnicate"]) == 64


def test_monitor_report(tmp_path, config_path, capsys):
    ledger_path = tmp_path / "trial.ndjson"
    main(["simulate", "--config", config_path(), "--out", str(ledger_path)])
    out = tmp_path / "report.txt"
    code = main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out), "--replay"])
    assert code == 0
    data = out.read_bytes()
    assert b'"deployment_reproducibility":"PASS"' in data


def test_monitor_report_custom_rules(tmp_path, config_path):
    ledger_path = tmp_path / "trial.ndjson"
    main(["simulate", "--config", config_path(), "--out", str(ledger_path),
          "--inject", "policy_exception_prob=1.0"])
    rules_path = tmp_path / "rules.yaml"
    rules_path.write_text(
        yaml.safe_dump({"rules": [{"metric": "fallback_rate", "comparator": ">", "threshold": 0.5, "window": "overall"}]})
    )
    out = tmp_path / "report.txt"
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out),
                 "--rules", str(rules_path)]) == 0
    assert b'"kind":"alert"' in out.read_bytes()


def test_ledger_inspect_prints_record(tmp_path, config_path, capsys):
    ledger_path = tmp_path / "trial.ndjson"
    main(["simulate", "--config", config_path(), "--out", str(ledger_path)])
    capsys.readouterr()
    assert main(["ledger-inspect", "--ledger", str(ledger_path), "--seq", "0"]) == 0
    out = capsys.readouterr().out
    header = json.loads(out.split("# decoded floats:")[0])
    assert header["seq"] == 0
    assert header["event_type"] == "HEADER"

    assert main(["ledger-inspect", "--ledger", str(ledger_path), "--seq", "999999"]) == 64


def test_simulate_seed_and_size_overrides(tmp_path, config_path):
    p1 = tmp_path / "a.ndjson"
    p2 = tmp_path / "b.ndjson"
    main(["simulate", "--config", config_path(), "--out", str(p1), "--seed", "77",
          "--participants", "1", "--days", "1"])
    main(["simulate", "--config", config_path(), "--out", str(p2), "--seed", "78",
          "--participants", "1", "--days", "1"])
    assert p1.read_bytes() != p2.read_bytes()
    lines = p1.read_bytes().splitlines()
    decisions = [ln for ln in lines if b'"event_type":"DECISION"' in ln]
    assert len(decisions) == 2  # 1 participant x 1 day x 2 points


def test_twin_run_parallel_jobs_matches_serial(tmp_path, config_path):
    cfg = config_path({"tuning": {"seeds": [1, 2]}}, name="par.yaml")
    out1 = tmp_path / "serial.txt"
    out2 = tmp_path / "parallel.txt"
    assert main(["twin-run", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["twin-run", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_replay_verify_raw_float_with_valid_chain_is_audit_error(tmp_path, config_path, capsys):
    ledger_path = tmp_path / "trial.ndjson"
    main(["simulate", "--config", config_path(), "--out", str(ledger_path)])
    lines = ledger_path.read_bytes().splitlines()
    # Rewrite the last record with a raw float and re-chain it, so only the
    # canonical-form check can catch it.
    body = json.loads(lines[-1])
    del body["hash"]
    body["payload"]["raw"] = 0.5
    raw = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("ascii")
    body["hash"] = compute_record_hash(bytes.fromhex(body["prev_hash"]), raw).hex()
    lines[-1] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("ascii")
    ledger_path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["replay-verify", "--ledger", str(ledger_path)]) == 2
    assert f"first_bad_seq={len(lines) - 1}" in capsys.readouterr().err
