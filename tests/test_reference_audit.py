"""``replay-verify``, ``monitor-report --replay`` and ``monitor-report``
give the exit codes and report bytes of the audit they replaced
(``tests/reference_audit.py``), on small trials of every shape, honest and
with up to two members edited.

The one exception is a ledger that breaks a rule the one-pass fold added: a
FEATURE_SNAPSHOT of a point that already has its DECISION, or a second
OUTCOME_OBSERVED of one point. The test finds those in the records
themselves, and then requires exit 2 from every verb.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_audit
from conftest import make_run_config, rechain
from ledgerloop.cli import main
from ledgerloop.runtime import MS_PER_DAY
from ledgerloop.twin import EnvironmentSpec, run_trial

HEX_FLOAT = re.compile("[0-9a-f]{16}")
# Event types to edit a record of, the ones the audits recompute or count more often.
EDITED = [
    "HEADER", "VERSION_CHANGE", "DATA_INGESTED", "ERROR",
    *["FEATURE_SNAPSHOT", "DECISION", "OUTCOME_OBSERVED", "MODEL_UPDATE"] * 3,
]
STRINGS = [
    "p000", "p001", "p002", "v1.0.0", "v1.0.1", "observed", "imputed", "default", "locf",
    "update_failure", "policy_exception", "",
]
# NaN, infinity, minus infinity, the largest float and the smallest subnormal.
SPECIAL_FLOATS = ["7ff8000000000000", "7ff0000000000000", "fff0000000000000", "7fefffffffffffff", "0000000000000001"]


def edited(value, draw):
    """Another value for a payload member stored as ``value``, mostly one of
    its own kind: a flipped bit of a float, an int moved by one or two or taken from one, a
    list with one item edited, dropped or repeated."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return draw(st.sampled_from([value - 2, value - 1, value + 1, value + 2, 1 - value]))
    if isinstance(value, str):
        if HEX_FLOAT.fullmatch(value):
            if draw(st.integers(0, 4)) == 0:
                return draw(st.sampled_from(SPECIAL_FLOATS))
            bit = draw(st.integers(0, 63))
            return f"{int(value, 16) ^ (1 << bit):016x}"
        return draw(st.sampled_from([s for s in STRINGS if s != value] + [value + "x"]))
    if isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        how = draw(st.sampled_from(["edit", "drop", "repeat"]))
        if how == "edit":
            return [*value[:i], edited(value[i], draw), *value[i + 1:]]
        return value[:i] + value[i + 1:] if how == "drop" else value[: i + 1] + value[i:]
    if value is None:
        return draw(st.integers(0, 40))
    return value  # a dict (the HEADER's config) or an empty list stays


# Edits aimed at what the audits check, each with the event types it edits.
AIMED = {
    "point": {"FEATURE_SNAPSHOT", "DECISION", "OUTCOME_OBSERVED"},  # decision_index -> another point's
    "action": {"DECISION"},  # the other action
    "kind": {"ERROR"},  # policy_exception <-> update_failure
    "backend_ts": {"ERROR", "MODEL_UPDATE"},  # days away, or either side of a midnight
}


def edit_one_member(path: Path, draw) -> None:
    """Edit one member of one record and re-derive the chain: any payload
    member (``edited``), or one of the ``AIMED`` edits."""
    records = [json.loads(line) for line in path.read_bytes().splitlines()]
    present = {r["event_type"] for r in records}
    how = draw(st.sampled_from(["member", *AIMED]), label="edit")
    if how == "member" or not present & AIMED[how]:
        how, event_type = "member", draw(st.sampled_from([t for t in EDITED if t in present]), label="event type")
    else:
        event_type = draw(st.sampled_from(sorted(present & AIMED[how])), label="event type")
    seq = draw(st.sampled_from([r["seq"] for r in records if r["event_type"] == event_type]))
    payload = records[seq]["payload"]
    if how == "point":
        pid = payload["participant_id"]
        index = draw(st.sampled_from(sorted({payload["decision_index"]} | {
            r["payload"]["decision_index"] for r in records
            if r["event_type"] == "DECISION" and r["payload"]["participant_id"] == pid
        })))
        rechain(path, seq, lambda record: record["payload"].update(decision_index=index))
    elif how == "action":
        rechain(path, seq, lambda record: record["payload"].update(action=1 - payload["action"]))
    elif how == "kind":
        kind = "policy_exception" if payload["kind"] == "update_failure" else "update_failure"
        rechain(path, seq, lambda record: record["payload"].update(kind=kind))
    elif how == "backend_ts":
        ts = records[seq]["backend_ts"]
        midnight = ts - ts % MS_PER_DAY
        moved = draw(st.sampled_from([ts - 5 * MS_PER_DAY, ts - MS_PER_DAY, ts + MS_PER_DAY,
                                      ts + 5 * MS_PER_DAY, midnight, midnight - 1]))
        rechain(path, seq, lambda record: record.update(backend_ts=moved))
    else:
        member = draw(st.sampled_from(sorted(payload)), label=f"member of {seq}")
        value = edited(payload[member], draw)
        rechain(path, seq, lambda record: record["payload"].__setitem__(member, value))


def breaks_a_new_rule(path: Path) -> bool:
    """Whether a record snapshots a decided point or repeats a point's outcome."""
    decided, rewarded = set(), set()
    for line in path.read_bytes().splitlines():
        record = json.loads(line)
        payload = record["payload"]
        if not isinstance(payload, dict):
            continue
        point = json.dumps([payload.get("participant_id"), payload.get("decision_index")])
        if record["event_type"] == "FEATURE_SNAPSHOT" and point in decided:
            return True
        if record["event_type"] == "DECISION":
            decided.add(point)
        if record["event_type"] == "OUTCOME_OBSERVED":
            if point in rewarded:
                return True
            rewarded.add(point)
    return False


def outcome(run) -> tuple:
    """(exit code, report bytes) of ``run``, or the class of what it raised."""
    try:
        return run()
    except Exception as exc:  # a traceback must match the reference's too
        return ("raised", type(exc).__name__), None


def verbs(path: Path, tmp: Path) -> list[tuple]:
    def cli(*argv, out):
        def run():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--ledger", str(path), "--out", str(out)])
            return code, out.read_bytes() if out.exists() else None

        return run

    return [
        outcome(cli("replay-verify", out=tmp / "divergence.txt")),
        outcome(cli("monitor-report", "--replay", out=tmp / "replayed.txt")),
        outcome(cli("monitor-report", out=tmp / "monitor.txt")),
    ]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_audit_verbs_give_the_references_verdicts_and_bytes(data):
    draw = data.draw
    days = draw(st.integers(1, 4), label="days")
    env = EnvironmentSpec(
        effect_mean=(0.5, 0.0, 0.0),
        baseline_mean=(0.2, 0.0, 0.0),
        outcome_noise_sd=0.5,
        engagement_noise_sd=0.05,
        n_participants=draw(st.integers(1, 3), label="participants"),
        n_days=days,
    )
    injection = {
        "policy_exception_prob": draw(st.sampled_from([0.0, 0.2, 1.0]), label="policy_exception_prob"),
        "data_loss_prob": draw(st.sampled_from([0.0, 0.2]), label="data_loss_prob"),
        "delay_geometric_p": draw(st.sampled_from([1.0, 0.5]), label="delay_geometric_p"),
    }
    overrides = {"injection": injection}
    if days > 1 and draw(st.booleans(), label="version switch"):
        overrides["version_switch"] = {"day": draw(st.integers(1, days - 1)), "version_id": "v1.0.1"}
    seed = draw(st.integers(0, 2**16), label="seed")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "trial.ndjson"
        run_trial(env, make_run_config(**overrides), seed, out_path=path).ledger.close()
        for _ in range(draw(st.integers(0, 2), label="edits")):
            edit_one_member(path, draw)
        got = verbs(path, tmp)
        if breaks_a_new_rule(path):
            assert [code for code, _ in got] == [2, 2, 2]
        else:
            assert got == [
                outcome(lambda: reference_audit.replay_verify_verb(path)),
                outcome(lambda: reference_audit.monitor_replay_verb(path)),
                outcome(lambda: reference_audit.monitor_verb(path)),
            ]
