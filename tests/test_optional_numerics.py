"""numpy and scipy are optional: only replaying a conjugate-linear-v1 ledger
needs them (the ``v1`` extra). PyYAML is needed only to read a config or
rules file, so the audit verbs run without any of the three.

Each check runs in a fresh interpreter, because this test process has
imported numpy, scipy and PyYAML already.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import yaml

from conftest import BASE_CONFIG, deep_merge
from ledgerloop.cli import main
from test_golden import DIVERGENCE_SHA256, GOLDEN_CONFIG, MONITOR_SHA256

ROOT = Path(__file__).resolve().parents[1]
V1_LEDGER = ROOT / "tests" / "fixtures" / "v1-golden.ndjson"

# Runs the CLI with every import of numpy or scipy refused, as on a host
# without them.
BLOCKED_CLI = r"""
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ImportError(f"No module named {name!r} (blocked)")
        return None

sys.meta_path.insert(0, Blocker())
from ledgerloop.cli import main
sys.exit(main(sys.argv[1:]))
"""

# Runs the CLI with PyYAML, numpy and scipy absent: an entry of None in
# sys.modules makes every import of that name fail.
AUDIT_ONLY_CLI = r"""
import sys

for name in ("yaml", "numpy", "scipy"):
    sys.modules[name] = None
from ledgerloop.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run(args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_importing_the_cli_imports_neither_numpy_nor_scipy():
    done = _run(["-c", (
        "import sys, ledgerloop.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')))"
    )])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_verbs_run_without_numpy_and_scipy(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(deep_merge(BASE_CONFIG, {
        "environment": {"n_participants": 2, "n_days": 2},
        "injection": {"policy_exception_prob": 0.2},
        "version_switch": {"day": 1, "version_id": "v1.0.1"},
        "tuning": {"prior_precision_scale": [0.5, 1.0], "seeds": [1]},
    })))
    ledger = tmp_path / "trial.ndjson"
    verbs = [
        ["simulate", "--config", str(config), "--out", str(ledger)],
        ["replay-verify", "--ledger", str(ledger)],
        ["monitor-report", "--ledger", str(ledger), "--out", str(tmp_path / "mon.txt"), "--replay"],
        ["twin-tune", "--config", str(config), "--out", str(tmp_path / "tune.txt")],
    ]
    for argv in verbs:
        done = _run(["-X", "dev", "-c", BLOCKED_CLI, *argv])
        assert (done.returncode, done.stderr) == (0, ""), argv

    # A v1 ledger cannot be replayed here: an audit error that names the extra.
    for argv in (
        ["replay-verify", "--ledger", str(V1_LEDGER)],
        ["monitor-report", "--ledger", str(V1_LEDGER), "--out", str(tmp_path / "v1.txt"), "--replay"],
    ):
        done = _run(["-c", BLOCKED_CLI, *argv])
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("audit error: version 'v1.0.0': this ledger was written by "
                                      "conjugate-linear-v1, which needs the optional `v1` extra")
        assert "Traceback" not in done.stderr
    assert not (tmp_path / "v1.txt").exists()


def test_the_audit_verbs_run_without_yaml_numpy_and_scipy(tmp_path):
    # The golden ledger audits to its pinned report bytes all the same.
    config = tmp_path / "golden.yaml"
    config.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    ledger = tmp_path / "golden.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(ledger)]) == 0
    divergence, monitor = tmp_path / "divergence.txt", tmp_path / "monitor.txt"
    for argv in (
        ["replay-verify", "--ledger", str(ledger), "--out", str(divergence)],
        ["monitor-report", "--ledger", str(ledger), "--out", str(monitor), "--replay"],
        ["ledger-inspect", "--ledger", str(ledger), "--seq", "1"],
    ):
        done = _run(["-X", "dev", "-c", AUDIT_ONLY_CLI, *argv])
        assert (done.returncode, done.stderr) == (0, ""), argv
    assert '"event_type": "VERSION_CHANGE"' in done.stdout
    assert hashlib.sha256(divergence.read_bytes()).hexdigest() == DIVERGENCE_SHA256
    assert hashlib.sha256(monitor.read_bytes()).hexdigest() == MONITOR_SHA256
