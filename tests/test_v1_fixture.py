"""The conjugate-linear-v1 oracle, kept as files.

``fixtures/v1-golden.ndjson`` is the golden ledger of ``test_golden.py``
(3 participants x 3 days, a mid-trial version switch, injected policy
exceptions, lost and late data) as ``simulate`` wrote it with the v1 logic.
``v1-golden-divergence.txt`` is its ``replay-verify --out`` report and
``v1-golden-monitor.txt`` its ``monitor-report --replay`` report, both written
in the same run. A ledger written by v1 must keep replaying to these bytes
whatever logic later becomes the default.
"""

import filecmp
from pathlib import Path

from ledgerloop.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
LEDGER = FIXTURES / "v1-golden.ndjson"


def test_v1_fixture_replays_to_its_committed_reports(tmp_path):
    divergence = tmp_path / "divergence.txt"
    monitor = tmp_path / "monitor.txt"
    assert main(["replay-verify", "--ledger", str(LEDGER), "--out", str(divergence)]) == 0
    assert main(["monitor-report", "--ledger", str(LEDGER), "--out", str(monitor), "--replay"]) == 0
    assert filecmp.cmp(divergence, FIXTURES / "v1-golden-divergence.txt", shallow=False)
    assert filecmp.cmp(monitor, FIXTURES / "v1-golden-monitor.txt", shallow=False)
