"""``replay-verify``, ``monitor-report --replay`` and ``monitor-report``
give the exit codes and report bytes of the audit they replaced
(``tests/reference_audit.py``), on small trials of every shape, honest and
with up to two members edited.

The one exception is a ledger that breaks a structural rule the reference
did not check, or checked in its replay only, as the fold of all three
verbs now does (``breaks_a_new_rule``). The test finds those in the records
themselves, and then requires exit 2 from every verb with one and the same
stderr line. A ledger whose VERSION_CHANGE records a fingerprint that no
registered logic has is exempt from the same line: only replay builds
logics, so the replaying verbs refuse it at that VERSION_CHANGE, where plain
``monitor-report`` goes on to the fold's refusal.
"""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_audit
from conftest import make_run_config, make_runtime, rechain
from ledgerloop.cli import main
from ledgerloop.config import MS_PER_DAY
from ledgerloop.events import PAYLOADS, RunHeader
from ledgerloop.ledger import config_digest, encode_float, read_records
from ledgerloop.replay import LOGICS
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


POINTS = {"FEATURE_SNAPSHOT", "DECISION", "OUTCOME_OBSERVED"}
NAMING = POINTS | {"DATA_INGESTED", "MODEL_UPDATE", "ERROR"}  # payloads with a participant_id
# Edits aimed at what the audits check, each with the event types it edits.
AIMED = {
    "point": POINTS,  # decision_index -> another point's, or one outside the schedule
    "participant": POINTS | {"MODEL_UPDATE"},  # participant_id -> another's
    "stranger": NAMING,  # participant_id -> one the HEADER lacks
    "features": {"HEADER"},  # a feature list one name shorter or longer, the digest re-derived
    "roster": {"HEADER"},  # a participant named twice, the digest re-derived
    "environment": {"HEADER"},  # an environment value EnvironmentSpec refuses, the digest re-derived
    "stamp": set(PAYLOADS),  # the envelope's version_id -> another version, active or not
    "action": {"DECISION"},  # the other action
    "kind": {"ERROR"},  # policy_exception <-> update_failure
    "backend_ts": {"ERROR", "MODEL_UPDATE"},  # days away, or either side of a midnight
    "pair": {"ERROR"},  # a policy_exception's message and its fallback's reason rewritten alike
    "gate": {"HEADER"},  # another policy_exception_prob, the digest re-derived
    "superseded": {"DATA_INGESTED"},  # superseded_snapshot_seq -> None, or a snapshot's seq
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
        schedule = records[0]["payload"]["config"]["schedule"]
        total = schedule["trial_days"] * len(schedule["decision_times"])
        index = draw(st.sampled_from(sorted({payload["decision_index"], -1, total, 9999} | {
            r["payload"]["decision_index"] for r in records
            if r["event_type"] == "DECISION" and r["payload"]["participant_id"] == pid
        })))
        rechain(path, seq, lambda record: record["payload"].update(decision_index=index))
    elif how == "participant":
        pid = draw(st.sampled_from([*records[0]["payload"]["config"]["participants"], "p999"]))
        rechain(path, seq, lambda record: record["payload"].update(participant_id=pid))
    elif how == "stranger":
        rechain(path, seq, lambda record: record["payload"].update(participant_id="p999"))
    elif how == "features":
        which = draw(st.sampled_from(["baseline", "treatment"]))
        names = payload["config"]["features"][which]
        names = names[:-1] if draw(st.booleans(), label="drop") else [*names, names[-1]]
        config = {**payload["config"], "features": {**payload["config"]["features"], which: names}}
        rechain(path, seq, lambda record: record["payload"].update(config=config, config_digest=config_digest(config)))
    elif how == "roster":
        participants = payload["config"]["participants"]
        repeated = draw(st.sampled_from(participants))
        config = {**payload["config"], "participants": [*participants, repeated]}
        rechain(path, seq, lambda record: record["payload"].update(config=config, config_digest=config_digest(config)))
    elif how == "environment":
        member, value = draw(st.sampled_from([
            ("miss_prob", 2.0), ("outcome_noise_sd", -1.0), ("engagement_persistence", 1.0),
            ("delay_geometric_p", 0.0), ("n_days", 0),
        ]))
        shown = encode_float(value) if isinstance(value, float) else value
        config = {**payload["config"], "environment": {**payload["config"]["environment"], member: shown}}
        rechain(path, seq, lambda record: record["payload"].update(config=config, config_digest=config_digest(config)))
    elif how == "stamp":
        stamp = draw(st.sampled_from(["v1.0.0", "v1.0.1", "bogus"]))
        rechain(path, seq, lambda record: record.update(version_id=stamp))
    elif how == "action":
        rechain(path, seq, lambda record: record["payload"].update(action=1 - payload["action"]))
    elif how == "kind":
        kind = "policy_exception" if payload["kind"] == "update_failure" else "update_failure"
        rechain(path, seq, lambda record: record["payload"].update(kind=kind))
    elif how == "pair":
        message = draw(st.sampled_from(["nothing failed", payload["message"] + "x"]))
        if payload["kind"] == "policy_exception" and seq + 1 < len(records):
            rechain(path, seq + 1, lambda record: record["payload"].update(fallback_reason=message))
        rechain(path, seq, lambda record: record["payload"].update(message=message))
    elif how == "gate":
        injection = payload["config"]["injection"]
        prob = draw(st.sampled_from([
            shown for shown in map(encode_float, (0.0, 0.2, 0.5, 1.0)) if shown != injection["policy_exception_prob"]
        ]))
        config = {**payload["config"], "injection": {**injection, "policy_exception_prob": prob}}
        rechain(path, seq, lambda record: record["payload"].update(config=config, config_digest=config_digest(config)))
    elif how == "superseded":
        snapshots = [r["seq"] for r in records if r["event_type"] == "FEATURE_SNAPSHOT"]
        superseded = draw(st.sampled_from([None, *snapshots]))
        rechain(path, seq, lambda record: record["payload"].update(superseded_snapshot_seq=superseded))
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
    """Whether the HEADER's feature lists are not as long as its model's
    dimensions; a record names a participant the HEADER does not; a
    snapshot, decision or outcome names a point outside the schedule; a
    snapshot follows its point's decision; a snapshot or decision names a
    point at or below its participant's last decision; a decision has no
    snapshot of its point, or no VERSION_CHANGE, before it; an outcome has
    no decision of its point before it, or repeats its point's; or a record
    is stamped with a version that no VERSION_CHANGE activates."""
    records = [json.loads(line) for line in path.read_bytes().splitlines()]
    config = records[0]["payload"]["config"]
    features, model = config["features"], config["model"]
    if (len(features["baseline"]), len(features["treatment"])) != (model["baseline_dim"], model["treatment_dim"]):
        return True
    schedule = config["schedule"]
    total = schedule["trial_days"] * len(schedule["decision_times"])
    snapshotted, decided, rewarded, activated, stamps = set(), set(), set(), set(), set()
    last_decided = {}
    for record in records:
        payload, event_type = record["payload"], record["event_type"]
        stamps.add(json.dumps(record["version_id"]))
        if not isinstance(payload, dict):
            continue
        participant = payload.get("participant_id")
        if isinstance(participant, str) and participant not in config["participants"]:
            return True
        if event_type == "VERSION_CHANGE":
            activated.add(json.dumps(payload.get("version_id")))
        if event_type not in POINTS:
            continue
        index = payload.get("decision_index")
        if type(index) is int and not 0 <= index < total:
            return True
        point = json.dumps([payload.get("participant_id"), index])
        if event_type != "OUTCOME_OBSERVED" and isinstance(participant, str) and type(index) is int:
            if index <= last_decided.get(participant, -1):
                return True
            if event_type == "DECISION":
                last_decided[participant] = index
        if event_type == "FEATURE_SNAPSHOT":
            if point in decided:
                return True
            snapshotted.add(point)
        elif event_type == "DECISION":
            if point not in snapshotted or not activated:
                return True
            decided.add(point)
        else:
            if point not in decided or point in rewarded:
                return True
            rewarded.add(point)
    return not stamps <= activated


def unregistered_fingerprint(path: Path) -> bool:
    """Whether a VERSION_CHANGE records a fingerprint no registered logic has."""
    for line in path.read_bytes().splitlines():
        record = json.loads(line)
        if record["event_type"] == "VERSION_CHANGE":
            payload = record["payload"]
            if not isinstance(payload, dict) or payload.get("fingerprint") not in LOGICS:
                return True
    return False


def outcome(run) -> tuple:
    """(exit code, report bytes) of ``run``, or the class of what it raised."""
    try:
        return run()
    except Exception as exc:  # a traceback must match the reference's too
        return ("raised", type(exc).__name__), None


def verbs(path: Path, tmp: Path, stderr: list[str]) -> list[tuple]:
    """The outcome of each audit verb on ``path``; what each wrote to stderr
    goes to ``stderr``."""
    def cli(*argv, out):
        def run():
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([*argv, "--ledger", str(path), "--out", str(out)])
            finally:
                stderr.append(err.getvalue())
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
        stderr = []
        got = verbs(path, tmp, stderr)
        if breaks_a_new_rule(path):
            assert [code for code, _ in got] == [2, 2, 2]
            if not unregistered_fingerprint(path):
                assert len(set(stderr)) == 1 and stderr[0].count("\n") == 1, stderr
        else:
            assert got == [
                outcome(lambda: reference_audit.replay_verify_verb(path)),
                outcome(lambda: reference_audit.monitor_replay_verb(path)),
                outcome(lambda: reference_audit.monitor_verb(path)),
            ]


def test_a_runtime_logs_the_header_it_runs_from(tmp_path):
    # The runtime is built from its HEADER and logs it as it is, so the
    # record an audit reads back holds the very sections the runtime ran
    # with: an imputation horizon of 3 cannot be logged as any other.
    path = tmp_path / "runtime.ndjson"
    runtime = make_runtime(make_run_config(imputation={"horizon": 3}), participants=("p0",), path=path)
    runtime.start(backend_ts=0)
    runtime.ingest_observation("p0", "engagement", 0.9, 9 * 3_600_000 - 60_000, backend_ts=0)
    assert "imputed" in runtime.assemble_features("p0", 2).provenance
    runtime.ledger.close()
    logged = next(iter(read_records(path))).payload
    sections = [f.name for f in dataclasses.fields(RunHeader)]
    assert sections == ["model", "schedule", "features", "imputation", "injection", "participants", "environment"]
    for section in sections:
        assert getattr(logged.config, section) == getattr(runtime.header.config, section), section
    assert logged == runtime.header and logged.config.imputation.horizon == 3
