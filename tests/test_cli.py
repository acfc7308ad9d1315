import json

import pytest
import yaml

from conftest import BASE_CONFIG, deep_merge
from test_config import CONFIG_PROBES
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


def test_monitor_report_rules_as_a_bare_list(tmp_path, config_path):
    ledger_path = tmp_path / "trial.ndjson"
    main(["simulate", "--config", config_path(), "--out", str(ledger_path),
          "--inject", "policy_exception_prob=1.0"])
    rules = [{"metric": "fallback_rate", "comparator": ">", "threshold": 0.5, "window": "overall"}]
    reports = []
    for form in (rules, {"rules": rules}):
        rules_path = tmp_path / f"rules{len(reports)}.yaml"
        rules_path.write_text(yaml.safe_dump(form))
        out = tmp_path / f"report{len(reports)}.txt"
        assert main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out),
                     "--rules", str(rules_path)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b'"kind":"alert"' in reports[0]


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


_RULE = {"metric": "fallback_rate", "comparator": ">"}


@pytest.mark.parametrize("rule, problem", [
    pytest.param({**_RULE, "threshold": "abc"}, "threshold: expected a number", id="abc"),
    pytest.param({**_RULE, "threshold": [1]}, "threshold: expected a number", id="threshold1"),
    pytest.param({**_RULE, "threshold": None}, "threshold: expected a number", id="None"),
    # A number written as a string is not read as the number.
    pytest.param({**_RULE, "threshold": "0.5"}, "threshold: expected a number", id="quoted-number"),
    # A misspelt key is refused, not ignored in favour of the default.
    pytest.param({**_RULE, "threshold": 0.5, "severty": "high"}, "severty: not a member",
                 id="misspelt-key"),
])
def test_monitor_report_bad_rule_threshold_exit_64(tmp_path, config_path, capsys, rule, problem):
    ledger_path = tmp_path / "trial.ndjson"
    assert main(["simulate", "--config", config_path(), "--out", str(ledger_path)]) == 0
    rules_path = tmp_path / "rules.yaml"
    rules_path.write_text(yaml.safe_dump({"rules": [rule]}))
    out = tmp_path / "report.txt"
    capsys.readouterr()
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out),
                 "--rules", str(rules_path)]) == 64
    assert capsys.readouterr().err.startswith(f"config error: --rules: rules[0].{problem}")
    assert not out.exists()


@pytest.mark.parametrize("rules, problem", [
    pytest.param({"rule": [{**_RULE, "threshold": 0.5}]}, "rule: not a member", id="misspelt-list-key"),
    pytest.param({"rules": [{**_RULE, "threshold": 0.5}], "severity": "high"}, "severity: not a member",
                 id="extra-key"),
    pytest.param({}, "rules: missing", id="no-rules"),
    pytest.param(5, "expected an object, got 5", id="number"),
])
def test_monitor_report_rules_file_keys_exit_64(tmp_path, config_path, capsys, rules, problem):
    # A rules file is a list of rules or a mapping whose one member is
    # "rules"; any other key is refused, never read as "no rules".
    ledger_path = tmp_path / "trial.ndjson"
    assert main(["simulate", "--config", config_path(), "--out", str(ledger_path)]) == 0
    rules_path = tmp_path / "rules.yaml"
    rules_path.write_text(yaml.safe_dump(rules))
    out = tmp_path / "report.txt"
    capsys.readouterr()
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out),
                 "--rules", str(rules_path)]) == 64
    assert capsys.readouterr().err == f"config error: --rules: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("rules", [None, "rules: [unclosed\n"], ids=["missing-file", "invalid-yaml"])
def test_monitor_report_unreadable_rules_file_exit_64(tmp_path, config_path, capsys, rules):
    ledger_path = tmp_path / "trial.ndjson"
    assert main(["simulate", "--config", config_path(), "--out", str(ledger_path)]) == 0
    rules_path = tmp_path / "rules.yaml"
    if rules is not None:
        rules_path.write_text(rules)
    out = tmp_path / "report.txt"
    capsys.readouterr()
    assert main(["monitor-report", "--ledger", str(ledger_path), "--out", str(out),
                 "--rules", str(rules_path)]) == 64
    assert capsys.readouterr().err.startswith("config error: --rules file ")
    assert not out.exists()


@pytest.mark.parametrize("drift", ["0.5", [1], "3fe0000000000000"])
@pytest.mark.parametrize("verb", ["simulate", "twin-run", "twin-tune"])
def test_environment_fields_are_validated(tmp_path, config_path, capsys, verb, drift):
    # A number written as a string, hex included, is refused, not read.
    cfg = config_path({"environment": {"drift": drift}})
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 64
    assert capsys.readouterr().err == (
        f"config error: environment.drift: expected a number, got {drift!r}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("level", ["abc", "0.5", [1]])
@pytest.mark.parametrize("verb", ["twin-run", "twin-tune"])
def test_environment_grid_levels_are_validated(tmp_path, config_path, capsys, verb, level):
    cfg = config_path({"grid": {"drift": [0.0, level]}})
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 64
    assert capsys.readouterr().err == f"config error: grid.drift[1]: expected a number, got {level!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, message", CONFIG_PROBES)
@pytest.mark.parametrize("verb", ["simulate", "twin-run", "twin-tune"])
def test_config_probes_exit_64_with_one_line(tmp_path, config_path, capsys, verb, overrides, message):
    cfg = config_path(overrides)
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "out")]) == 64
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
