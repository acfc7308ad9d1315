"""Every chain-valid ledger gets an answer, never a traceback.

The golden ledger is edited one payload member at a time (a HEADER's
``config.model`` and ``config.schedule`` members included, with its
``config_digest`` re-derived) and re-chained, so only the edited content can
be refused. ``replay-verify``, ``monitor-report --replay`` and
``ledger-inspect`` must then end with exit 0, 1 or 2: never the config-error
code 64 and never an uncaught exception. The read pass yields only typed
payloads: an edit the schema refuses is the one audit error every verb
gives.
"""

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_seq, rechain
from ledgerloop import events, ledger
from ledgerloop.cli import main
from ledgerloop.errors import DecodeError
from ledgerloop.ledger import config_digest, encode_float, map_floats, read_records
from test_golden import GOLDEN_CONFIG


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("golden")
    config = tmp / "golden.yaml"
    config.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    path = tmp / "golden.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(path)]) == 0
    return path


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def _members(records: list[dict]) -> list[tuple[int, tuple[str, ...]]]:
    """Every (seq, path) an edit may set: each payload member of each record,
    and each member of the HEADER's config.model and config.schedule."""
    members = []
    for seq, record in enumerate(records):
        payload = record["payload"]
        members += [(seq, (name,)) for name in sorted(payload)]
        if record["event_type"] == "HEADER":
            for part in ("model", "schedule"):
                members += [(seq, ("config", part, name)) for name in sorted(payload["config"][part])]
    return members


def _setter(path: tuple[str, ...], value):
    def edit(record):
        payload = record["payload"]
        target = payload
        for name in path[:-1]:
            target = target[name]
        target[path[-1]] = value
        if path[0] == "config":
            payload["config_digest"] = config_digest(payload["config"])

    return edit


def _audit_codes(path: Path, seq: int, out: Path) -> list[int]:
    return [
        main(["replay-verify", "--ledger", str(path)]),
        main(["monitor-report", "--replay", "--ledger", str(path), "--out", str(out)]),
        main(["ledger-inspect", "--ledger", str(path), "--seq", str(seq)]),
    ]


# Values of every JSON type; a member is set to one of another type, or to an
# integer out of range (negative, or beyond 64 bits).
JSON_VALUES = [None, True, False, 0, 7, "x", "", [], [7], ["x"], {}, {"x": 1}]
OUT_OF_RANGE = [-1, 2**64, -(2**63) - 1]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_single_member_edit_gets_an_answer(golden, data):
    records = _records(golden)
    seq, path = data.draw(st.sampled_from(_members(records)), label="member")
    target = records[seq]["payload"]
    for name in path:
        target = target[name]
    value = data.draw(
        st.sampled_from([v for v in JSON_VALUES if type(v) is not type(target)] + OUT_OF_RANGE),
        label="value",
    )
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "edited.ndjson"
        shutil.copyfile(golden, edited)
        rechain(edited, seq, _setter(path, value))
        codes = _audit_codes(edited, seq, Path(tmp) / "mon.txt")
    assert all(code in (0, 1, 2) for code in codes), (seq, path, value, codes)


@pytest.mark.parametrize(
    "event_type, path, value, message",
    [
        ("DECISION", ("fallback",), 7, "malformed DECISION payload: fallback: expected a boolean"),
        ("DECISION", ("fallback",), "x", "malformed DECISION payload: fallback: expected a boolean"),
        ("FEATURE_SNAPSHOT", ("provenance",), "x", "malformed FEATURE_SNAPSHOT payload: provenance: expected a list"),
        ("HEADER", ("config", "model", "baseline_dim"), "x",
         "malformed HEADER config: model.baseline_dim: expected an integer"),
        ("HEADER", ("config", "model", "prior_mean"), 7, "malformed HEADER config: model.prior_mean: expected a list"),
        ("HEADER", ("stream_id",), 7, "malformed HEADER payload: stream_id: expected a string"),
        ("HEADER", ("format_version",), "7", "malformed HEADER payload: format_version: expected an integer"),
        ("HEADER", ("format_version",), 2, "malformed HEADER payload: format_version 2 is not 1"),
        # A day count no trial has: the monitor would report every one of them.
        ("HEADER", ("config", "schedule", "trial_days"), 2**64,
         "malformed HEADER config: schedule: schedule.trial_days must be in [1, 36525]"),
        # Seed derivation takes the index as 8 bytes.
        ("DECISION", ("decision_index",), 2**64, "malformed DECISION payload: decision_index must be in [0, 2**64)"),
        # DATA_INGESTED payloads are decoded too, though the fold keeps nothing of them.
        ("DATA_INGESTED", ("value",), "zz", "malformed DATA_INGESTED payload: value: expected 16 lowercase hex chars"),
        ("DATA_INGESTED", ("participant_id",), [1], "malformed DATA_INGESTED payload: participant_id: expected a string"),
        ("DATA_INGESTED", ("bogus",), 7, "malformed DATA_INGESTED payload: bogus: not a member"),
    ],
)
def test_edits_that_passed_or_crashed_are_audit_errors(tmp_path, golden, capsys, event_type, path, value, message):
    edited = tmp_path / "edited.ndjson"
    shutil.copyfile(golden, edited)
    seq = first_seq(edited, event_type)
    rechain(edited, seq, _setter(path, value))
    out = tmp_path / "mon.txt"
    for argv in (["replay-verify"], ["monitor-report", "--replay", "--out", str(out)]):
        assert main([*argv, "--ledger", str(edited)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"audit error: {message}")
        assert len(err.splitlines()) == 1
    assert not out.exists()


def _consumed_seqs(path: Path) -> dict[str, int]:
    """The seq of the outcome the first MODEL_UPDATE consumes first, of that
    outcome's snapshot and decision, and of the first DATA_INGESTED."""
    records = _records(path)
    outcome_seq = records[first_seq(path, "MODEL_UPDATE")]["payload"]["batch_seqs"][0]
    outcome = records[outcome_seq]["payload"]
    key = (outcome["participant_id"], outcome["decision_index"])

    def of_key(payload):
        return (payload["participant_id"], payload["decision_index"]) == key

    return {
        "OUTCOME_OBSERVED": outcome_seq,
        "FEATURE_SNAPSHOT": first_seq(path, "FEATURE_SNAPSHOT", of_key),
        "DECISION": first_seq(path, "DECISION", of_key),
        "DATA_INGESTED": first_seq(path, "DATA_INGESTED"),
    }


FLOAT_MEMBERS = [
    ("OUTCOME_OBSERVED", ("reward",)),
    *(("FEATURE_SNAPSHOT", (block, i)) for block in ("baseline", "treatment") for i in range(3)),
    ("DECISION", ("pi_raw",)),
    ("DECISION", ("pi",)),
    ("DATA_INGESTED", ("value",)),
]
NON_FINITE = {"nan": "7ff8000000000000", "+inf": "7ff0000000000000", "-inf": "fff0000000000000"}


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("event_type, path", FLOAT_MEMBERS)
def test_a_non_finite_float_gets_an_answer(tmp_path, golden, event_type, path, value):
    # The records edited are those the first update consumes, so the value
    # reaches the posterior recompute: a refused update is a divergence.
    edited = tmp_path / "edited.ndjson"
    shutil.copyfile(golden, edited)
    seq = _consumed_seqs(golden)[event_type]
    rechain(edited, seq, _setter(path, value))
    codes = _audit_codes(edited, seq, tmp_path / "mon.txt")
    assert all(code in (0, 1, 2) for code in codes), codes


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_a_non_finite_reward_is_a_divergence_at_its_update(tmp_path, golden, capsys, value):
    edited = tmp_path / "edited.ndjson"
    shutil.copyfile(golden, edited)
    rechain(edited, _consumed_seqs(golden)["OUTCOME_OBSERVED"], _setter(("reward",), value))
    report = tmp_path / "report.txt"
    assert main(["replay-verify", "--ledger", str(edited), "--out", str(report)]) == 1
    assert "replay diverged" in capsys.readouterr().err
    diffs = [json.loads(line) for line in report.read_bytes().splitlines()[2:]]
    at_update = [d for d in diffs if d["seq"] == first_seq(golden, "MODEL_UPDATE")]
    assert [(d["path"], d["recomputed"]) for d in at_update] == [("post_state", "error:DataError")]


def _sample_payloads(path: Path) -> dict[str, dict]:
    """One stored payload of every event type in :data:`events.PAYLOADS`:
    the golden ledger's first, or for a type it has none of, a written one."""
    samples = {}
    for record in _records(path):
        samples.setdefault(record["event_type"], record["payload"])
    alert = events.AlertInfo("decision_coverage", ">=", 0.5, 0.25, "overall", None, "warning")
    samples.setdefault("ALERT", map_floats(alert, encode_float))
    return samples


def _edits(payload: dict):
    """The payload, then every edit the tests above make of one member (a
    value of each JSON type, an out-of-range integer, a non-finite float)
    and of one item of a list member, a member left out and one added."""
    yield payload
    for name in sorted(payload):
        for value in [*JSON_VALUES, *OUT_OF_RANGE, *NON_FINITE.values(), "ABCDEF0123456789", "0" * 15]:
            yield {**payload, name: value}
            if isinstance(payload[name], list) and payload[name]:
                yield {**payload, name: [value, *payload[name][1:]]}
        yield {key: payload[key] for key in payload if key != name}
    yield {**payload, "bogus": 7}


def _outcome(decode, value):
    # Floats compared by their bits, so a NaN equals itself.
    try:
        return "value", map_floats(decode(value), encode_float)
    except DecodeError as exc:
        return "refused", type(exc), str(exc)


def _line(event_type: str, payload) -> str:
    """A record line holding ``payload``, every envelope member canonical."""
    record = {
        "backend_ts": 0, "device_ts": None, "environment_profile": "test", "event_type": event_type,
        "hash": "0" * 64, "payload": payload, "prev_hash": "0" * 64, "seq": 0, "stream_id": "s",
        "version_id": "v1",
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("event_type", events.PAYLOADS)
def test_the_compiled_decoder_answers_as_the_annotation_walk(golden, event_type):
    # The compiled decoder is the line matcher: on lines whose strings need
    # no escape (so every edit below), it takes exactly the payloads the walk
    # takes and gives the walk's value. The HEADER, whose config no regex
    # reads, has none and is always read by the JSON path.
    cls = events.PAYLOADS[event_type]
    read = ledger._line_reader(event_type, cls)
    walk = ledger._dataclass(cls, ledger.LEDGER_FORMAT)
    if event_type == "HEADER":
        assert read is None
        return
    assert read.__code__.co_filename == f"<line matcher of {cls.__qualname__}>"
    answers = set()
    for value in _edits(_sample_payloads(golden)[event_type]):
        answer = _outcome(walk, value)
        parsed = read(_line(event_type, value))
        if parsed is None:
            assert answer[0] == "refused", value
        else:
            assert answer == ("value", map_floats(parsed[0][-1], encode_float)), value
        answers.add(answer[0])
    assert answers == {"value", "refused"}


# Every value an edit above sets a member to.
EDIT_VALUES = [*JSON_VALUES, *OUT_OF_RANGE, *NON_FINITE.values()]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_record_read_carries_its_typed_payload(golden, data):
    # Either the read pass yields each record with an instance of its event
    # type's class, or it raises the one line replay-verify prints.
    records = _records(golden)
    seq, path = data.draw(st.sampled_from(_members(records)), label="member")
    value = data.draw(st.sampled_from(EDIT_VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "edited.ndjson"
        shutil.copyfile(golden, edited)
        for ledger_path in (golden, edited):
            if ledger_path is edited:
                rechain(edited, seq, _setter(path, value))
            try:
                read = list(read_records(ledger_path))
            except DecodeError as exc:
                assert ledger_path is edited and exc.seq is None
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert main(["replay-verify", "--ledger", str(ledger_path)]) == 2
                assert err.getvalue() == f"audit error: {exc}\n"
            else:
                assert len(read) == len(records)
                assert all(type(r.payload) is events.PAYLOADS[r.event_type] for r in read)


# SHA-256 of the standard output of ledger-inspect for every seq of the
# golden ledger, in seq order. The HEADER's shows its typed config's floats
# decoded too.
INSPECT_SHA256 = "0f3e8a99a94f30ab00a627f5140d8bd5a7a9f6a67cd350c17dabe278bdbc45be"


def _holds_a_float(value) -> bool:
    if type(value) is float:
        return True
    if isinstance(value, dict):
        return any(_holds_a_float(v) for v in value.values())
    return isinstance(value, list) and any(_holds_a_float(v) for v in value)


def test_ledger_inspect_prints_every_golden_record_as_pinned(golden, capsys):
    digest = hashlib.sha256()
    for record in read_records(golden):
        assert main(["ledger-inspect", "--ledger", str(golden), "--seq", str(record.seq)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        stored = json.loads(out[: out.find("\n}\n") + 2])
        assert stored == json.loads(record.to_line())
        # The decoded block is shown only for a payload with a float.
        assert ("# decoded floats:" in out) == _holds_a_float(map_floats(record.payload, lambda x: x))
        digest.update(out.encode())
    assert digest.hexdigest() == INSPECT_SHA256


def test_ledger_inspect_of_a_refused_payload_is_the_audit_error(tmp_path, golden, capsys):
    edited = tmp_path / "edited.ndjson"
    shutil.copyfile(golden, edited)
    seq = first_seq(edited, "DECISION")
    rechain(edited, seq, _setter(("fallback",), 7))
    message = "audit error: malformed DECISION payload: fallback: expected a boolean, got 7\n"
    for argv in (["ledger-inspect", "--seq", str(seq)], ["replay-verify"]):
        assert main([*argv, "--ledger", str(edited)]) == 2
        assert capsys.readouterr() == ("", message)
    # A record before it is still shown.
    assert main(["ledger-inspect", "--ledger", str(edited), "--seq", str(seq - 1)]) == 0
    assert f'\n  "seq": {seq - 1},\n' in capsys.readouterr().out
