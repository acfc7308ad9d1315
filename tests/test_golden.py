"""Golden-bytes oracle: pinned SHA-256 digests of a small simulated ledger, of
its divergence report (``replay-verify --out``) and monitor report
(``monitor-report --replay``), of the twin-run and twin-tune reports on the
same config, and of the divergence reports of two copies of the ledger with
their chains re-derived: one with one decision's ``pi_raw`` changed, one with
decisions and updates changed in five ways.

The config is small (3 participants x 3 days) but walks every write path: a
mid-trial version switch, injected policy exceptions (fallback decisions and
ERROR records), lost data (defaults and carry-forward) and geometric delays
(late arrivals that reference superseded snapshots). A change that alters any
output byte fails here, so refactors and speedups must keep these digests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import BASE_CONFIG, deep_merge, rechain, records_of
from ledgerloop.cli import main
from ledgerloop.ledger import encode_float

GOLDEN_CONFIG = deep_merge(
    BASE_CONFIG,
    {
        "environment": {"n_participants": 3, "n_days": 3},
        "injection": {
            "policy_exception_prob": 0.25,
            "data_loss_prob": 0.2,
            "delay_geometric_p": 0.5,
        },
        "version_switch": {"day": 1, "version_id": "v1.1.0"},
        "grid": {"effect_mean": [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]},
        "tuning": {"seeds": [1, 2]},
    },
)

SIMULATE_SHA256 = "ef3c1fa470df38a5fe452871fcfe9fef17392097942680c2a1e216f51c0043e2"
TWIN_RUN_SHA256 = "c73391ef23a98c8b6af2949ef5c749e2ac1778cea64ffde4b35a5b49c4fbddc5"
DIVERGENCE_SHA256 = "785e181cc8323d04b735112981b67c37764acd0728e43b3796f287da35fca767"
MONITOR_SHA256 = "c5a934a5a641236a632b2ddbaec0f6ac0ffc05a0175d6a367b99fb04619133ca"
TWIN_TUNE_SHA256 = "e495c3c42ef74d1762b98109afbfd8f2edc8fa499651e5f9b2094f03215e96af"
DIVERGED_SHA256 = "9c81e11baf0583787514dc0f256d5878709f6b22a4cf2e85f6c895801153555c"
DIVERGED_SEVERAL_SHA256 = "71165fb7a37564e82cb29cd1e10fec38de4af33d7d6fa3f1aa5a12303cd93431"

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def golden_config(tmp_path):
    path = tmp_path / "golden.yaml"
    path.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    return str(path)


@pytest.fixture
def golden_ledger(tmp_path, golden_config):
    path = tmp_path / "golden.ndjson"
    assert main(["simulate", "--config", golden_config, "--out", str(path)]) == 0
    return path


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_ledger_bytes_are_pinned(tmp_path, golden_config):
    ledger_path = tmp_path / "golden.ndjson"
    assert main(["simulate", "--config", golden_config, "--out", str(ledger_path)]) == 0
    assert main(["replay-verify", "--ledger", str(ledger_path)]) == 0
    data = ledger_path.read_bytes()
    # The config must keep reaching the paths it is meant to pin.
    assert b'"event_type":"ERROR"' in data
    assert b'"imputed"' in data and b'"default"' in data
    assert b'"superseded_snapshot_seq":null' in data
    assert data.count(b'"superseded_snapshot_seq":') > data.count(b'"superseded_snapshot_seq":null')
    assert b'"version_id":"v1.1.0"' in data
    assert _sha256(ledger_path) == SIMULATE_SHA256


def test_twin_run_report_bytes_are_pinned(tmp_path, golden_config):
    report_path = tmp_path / "golden-eval.txt"
    assert main(["twin-run", "--config", golden_config, "--out", str(report_path)]) == 0
    assert _sha256(report_path) == TWIN_RUN_SHA256


def test_divergence_report_bytes_are_pinned(tmp_path, golden_ledger):
    report_path = tmp_path / "golden-divergence.txt"
    assert main(["replay-verify", "--ledger", str(golden_ledger), "--out", str(report_path)]) == 0
    assert _sha256(report_path) == DIVERGENCE_SHA256


def test_monitor_report_bytes_are_pinned(tmp_path, golden_ledger):
    report_path = tmp_path / "golden-monitor.txt"
    args = ["monitor-report", "--ledger", str(golden_ledger), "--out", str(report_path), "--replay"]
    assert main(args) == 0
    assert _sha256(report_path) == MONITOR_SHA256


def test_replay_verify_in_fresh_process(tmp_path, golden_ledger):
    # Nothing from the writing process (caches, cached factors, imported
    # state) may be needed for the replay to be exact.
    report_path = tmp_path / "golden-divergence.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ledgerloop.cli", "replay-verify",
         "--ledger", str(golden_ledger), "--out", str(report_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert _sha256(report_path) == DIVERGENCE_SHA256


def test_twin_tune_report_bytes_are_pinned(tmp_path):
    config = tmp_path / "tune.yaml"
    tuning = {"prior_precision_scale": [0.5, 1.0], "seeds": [1, 2]}
    config.write_text(yaml.safe_dump(deep_merge(GOLDEN_CONFIG, {"tuning": tuning})))
    report_path = tmp_path / "golden-tune.txt"
    args = ["twin-tune", "--config", str(config), "--out", str(report_path), "--jobs", "2"]
    assert main(args) == 0
    assert report_path.read_bytes().count(b'"kind":"ranked"') == 2
    assert _sha256(report_path) == TWIN_TUNE_SHA256


def _flip_low_bit(name):
    """An edit flipping the lowest bit of the hex payload field ``name``."""

    def edit(record):
        value = record["payload"][name]
        record["payload"][name] = value[:-1] + f"{int(value[-1], 16) ^ 1:x}"

    return edit


def _xor_seed(record):
    record["payload"]["seed"] ^= 1


def _set_pi(record):
    record["payload"]["pi"] = encode_float(0.75)


def _any(payload):
    return True


def _normal(payload):
    return not payload["fallback"]


def _fallback(payload):
    return payload["fallback"]


# Each case is a list of (event type, payload filter, position among the
# records it passes, edit). The second mixes every kind of diff, so the
# pinned bytes fix their order: decisions before updates, each in seq order.
DIVERGENCE_EDITS = {
    "pi_raw": ([("DECISION", _normal, 0, _flip_low_bit("pi_raw"))], DIVERGED_SHA256),
    "several": (
        [
            ("DECISION", _normal, 1, _flip_low_bit("pi")),
            ("DECISION", _any, 3, _xor_seed),
            ("DECISION", _fallback, 1, _set_pi),
            ("MODEL_UPDATE", _any, 0, _flip_low_bit("post_state")),
            ("MODEL_UPDATE", _any, -1, _flip_low_bit("pre_state_hash")),
        ],
        DIVERGED_SEVERAL_SHA256,
    ),
}


@pytest.mark.parametrize("case", DIVERGENCE_EDITS)
def test_diverged_divergence_report_bytes_are_pinned(tmp_path, golden_ledger, case):
    edits, digest = DIVERGENCE_EDITS[case]
    seqs = []
    for event_type, where, position, edit in edits:
        seq = [r.seq for r in records_of(golden_ledger, event_type) if where(r.payload)][position]
        rechain(golden_ledger, seq, edit)
        seqs.append(seq)
    report_path = tmp_path / "golden-diverged.txt"
    assert main(["replay-verify", "--ledger", str(golden_ledger), "--out", str(report_path)]) == 1
    report = report_path.read_bytes()
    assert f'"first_divergent_seq":{min(seqs)}'.encode() in report
    for seq in seqs:
        assert f'"seq":{seq}'.encode() in report
    assert _sha256(report_path) == digest
