"""numpy and scipy are optional: only replaying a conjugate-linear-v1 ledger
needs them (the ``v1`` extra). PyYAML is needed only to read a config or
rules file, so the audit verbs run without any of the three, under every
CPython listed in ``LEDGERLOOP_TEST_PYTHONS``. Nor do they load the digital
twin or the runtime, which only the verbs that run a trial import. Each
module of the package imports when it is the first one imported.

Each check runs in a fresh interpreter, because this test process has
imported numpy, scipy, PyYAML and the package already.
"""

import hashlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import ledgerloop

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

# Runs the CLI with PyYAML, numpy, scipy, the twin and the runtime absent:
# an entry of None in sys.modules makes every import of that name fail.
AUDIT_ONLY_CLI = r"""
import sys

for name in ("yaml", "numpy", "scipy", "ledgerloop.twin", "ledgerloop.runtime"):
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
    # Nor with the twin and the runtime: the golden ledger audits to its
    # pinned report bytes all the same.
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


def test_every_module_imports_first_in_a_fresh_interpreter():
    # An import cycle shows only when a module of the cycle is imported first.
    modules = sorted(info.name for info in pkgutil.iter_modules(ledgerloop.__path__))
    assert {"cli", "config", "events", "ledger", "runtime"} <= set(modules)
    for module in modules:
        done = _run(["-c", f"import ledgerloop.{module}"])
        assert (done.returncode, done.stderr) == (0, ""), module
    # The configuration types import neither the loop nor the schema, and
    # the schema does not import the loop.
    for module, below in (("config", ("events", "runtime")), ("events", ("runtime",))):
        code = f"import sys, ledgerloop.{module}; print([m for m in {below!r} if 'ledgerloop.' + m in sys.modules])"
        done = _run(["-c", code])
        assert (done.returncode, done.stdout) == (0, "[]\n"), (module, done.stdout, done.stderr)


# Runs the CLI with ``src`` alone added to the interpreter's own path.
SRC_ONLY_CLI = r"""
import sys

sys.path.insert(0, sys.argv.pop(1))
from ledgerloop.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.environ.get("LEDGERLOOP_TEST_PYTHONS"), reason="LEDGERLOOP_TEST_PYTHONS is not set")
def test_the_audits_give_the_golden_bytes_under_every_listed_python(tmp_path):
    # The golden ledger, written here, audits to its pinned report bytes
    # under each interpreter listed (paths separated as in PATH), run
    # isolated from the environment and the user's site-packages.
    config = tmp_path / "golden.yaml"
    config.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    ledger = tmp_path / "golden.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(ledger)]) == 0
    for python in filter(None, os.environ["LEDGERLOOP_TEST_PYTHONS"].split(os.pathsep)):
        divergence, monitor = tmp_path / "divergence.txt", tmp_path / "monitor.txt"
        for argv in (
            ["replay-verify", "--ledger", str(ledger), "--out", str(divergence)],
            ["monitor-report", "--ledger", str(ledger), "--out", str(monitor), "--replay"],
        ):
            done = subprocess.run(
                [python, "-I", "-c", SRC_ONLY_CLI, str(ROOT / "src"), *argv],
                capture_output=True, text=True, timeout=120,
            )
            assert (done.returncode, done.stderr) == (0, ""), (python, argv)
        assert hashlib.sha256(divergence.read_bytes()).hexdigest() == DIVERGENCE_SHA256, python
        assert hashlib.sha256(monitor.read_bytes()).hexdigest() == MONITOR_SHA256, python
        divergence.unlink()
        monitor.unlink()
