"""The single verified read pass against the two-encode chain check it
replaced, and its typed read against its JSON path.

``reference_verify_chain`` is that earlier check, kept here as the oracle:
parse, then one canonical encode of the body for the hash and one of the
whole record for the canonical-form check. The new pass parses once,
re-encodes once and hashes the stored line with its ``hash`` member cut out;
on every input below it must name the same first bad seq, and
``Ledger.open`` must fail exactly where ``verify_chain`` does.

The read pass tries each line's compiled line matcher first and falls back
on the JSON path. It must give the records the JSON path alone gives
(``_parse_line``, then the annotation walk, ``decode_payload``), and every
audit verdict the JSON path gives.
"""

import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_seq, make_run_config, rechain
from ledgerloop import ledger as ledger_module
from ledgerloop.cli import main
from ledgerloop.errors import ConfigurationError, DecodeError
from ledgerloop.events import PAYLOADS, DatumInfo, ErrorInfo, SnapshotInfo, UpdateInfo, decode_payload
from ledgerloop.ledger import (
    GENESIS_HASH,
    EventEnvelope,
    Ledger,
    canonical_json_bytes,
    compute_record_hash,
    encode_float,
    map_floats,
    read_records,
    verify_chain,
)
from ledgerloop.twin import EnvironmentSpec, run_trial
from test_golden import GOLDEN_CONFIG
from test_record_path import TYPED, ints, texts


def _reference_envelope(obj: dict) -> EventEnvelope:
    prev_hash = bytes.fromhex(obj["prev_hash"])
    rec_hash = bytes.fromhex(obj["hash"])
    if len(prev_hash) != 32 or len(rec_hash) != 32:
        raise ValueError("hashes must be 32 bytes")
    return EventEnvelope(
        seq=int(obj["seq"]),
        stream_id=obj["stream_id"],
        environment_profile=obj["environment_profile"],
        device_ts=obj["device_ts"],
        backend_ts=int(obj["backend_ts"]),
        version_id=obj["version_id"],
        event_type=obj["event_type"],
        payload=obj["payload"],
        prev_hash=prev_hash,
        hash=rec_hash,
    )


def reference_verify_chain(path) -> int | None:
    prev_hash = GENESIS_HASH
    for i, line in enumerate(path.read_bytes().splitlines()):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                return i
            record = _reference_envelope(obj)
        except (KeyError, ValueError, TypeError):
            return i
        if record.seq != i or record.prev_hash != prev_hash:
            return i
        # The body as parsed: the payload dict, raw floats included.
        body_dict = {**record.body_dict(), "payload": record.payload}
        try:
            body = canonical_json_bytes(body_dict)
        except ConfigurationError:
            return i
        if compute_record_hash(prev_hash, body) != record.hash:
            return i
        if canonical_json_bytes({**body_dict, "hash": record.hash.hex()}) != bytes(line):
            return i
        prev_hash = record.hash
    return None


def open_verdict(path) -> int | None:
    """The seq Ledger.open fails at, or None when it loads."""
    try:
        Ledger.open(path).close()
    except DecodeError as exc:
        assert exc.seq is not None
        return exc.seq
    return None


def small_trial(out_path=None):
    """A real trial (every event type the runtime writes, late data,
    fallbacks), small enough to re-verify hundreds of times."""
    env = EnvironmentSpec(
        effect_mean=(0.5, 0.0, 0.0),
        baseline_mean=(0.2, 0.0, 0.0),
        outcome_noise_sd=0.5,
        engagement_noise_sd=0.05,
        miss_prob=0.2,
        delay_geometric_p=0.5,
        n_participants=2,
        n_days=2,
    )
    config = make_run_config(injection={"policy_exception_prob": 0.3})
    return run_trial(env, config, 7, out_path=out_path)


@pytest.fixture
def small_ledger(tmp_path):
    """The ledger file of :func:`small_trial`."""
    path = tmp_path / "small.ndjson"
    small_trial(path).ledger.close()
    return path


def test_single_byte_mutations_agree_with_reference(tmp_path, small_ledger):
    original = small_ledger.read_bytes()
    assert verify_chain(small_ledger) is None
    assert reference_verify_chain(small_ledger) is None
    rng = np.random.default_rng(2009)
    mutated = tmp_path / "mutated.ndjson"
    verdicts = set()
    for _ in range(600):
        i = int(rng.integers(0, len(original)))
        new = int(rng.integers(0, 256))
        if new == original[i]:
            new = (new + 1) % 256
        mutated.write_bytes(original[:i] + bytes([new]) + original[i + 1:])
        expected = reference_verify_chain(mutated)
        assert verify_chain(mutated) == expected, (i, new)
        assert open_verdict(mutated) == expected, (i, new)
        verdicts.add(expected)
    assert len(verdicts) > 10  # the mutations reach many records


def _rewrite_last(path, edit_body, render=None):
    """Replace the last record with an edited copy whose hash is honest: it
    is computed over the canonical body, as a writer would. ``render`` turns
    the full record dict into the line actually stored."""
    lines = path.read_bytes().splitlines()
    record = json.loads(lines[-1])
    del record["hash"]
    edit_body(record)
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    record["hash"] = compute_record_hash(bytes.fromhex(record["prev_hash"]), body).hex()
    if render is None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    else:
        line = render(record)
    path.write_bytes(b"\n".join(lines[:-1] + [line]) + b"\n")
    return len(lines) - 1


def _set_payload(key, value):
    def edit(record):
        record["payload"][key] = value

    return edit


def _canonical_then(replace_from: bytes, replace_to: bytes):
    def render(record):
        line = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        assert replace_from in line
        return line.replace(replace_from, replace_to, 1)

    return render


def _no_edit(record):
    pass


HAND_MADE = {
    "raw float": (_set_payload("x", 1.5), None),
    "NaN": (_set_payload("x", float("nan")), None),
    "Infinity": (_set_payload("x", float("inf")), None),
    "negative zero": (_set_payload("x", 0), _canonical_then(b'"x":0', b'"x":-0')),
    "non-ASCII byte": (
        _set_payload("x", "é"),
        lambda r: json.dumps(r, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode(),
    ),
    "duplicate key": (_no_edit, _canonical_then(b'{"backend_ts":', b'{"backend_ts":0,"backend_ts":')),
    "reordered keys": (
        _no_edit,
        lambda r: json.dumps(dict(reversed(sorted(r.items()))), separators=(",", ":")).encode(),
    ),
    "extra whitespace": (_no_edit, lambda r: json.dumps(r, sort_keys=True).encode()),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_hand_made_non_canonical_lines_fail_at_their_seq(small_ledger, case):
    edit, render = HAND_MADE[case]
    seq = _rewrite_last(small_ledger, edit, render)
    assert reference_verify_chain(small_ledger) == seq
    assert verify_chain(small_ledger) == seq
    assert open_verdict(small_ledger) == seq


def test_payload_with_its_own_hash_key_passes_the_chain_check(small_ledger):
    # No payload the writers write holds a "hash" key, the HEADER's typed
    # config included. A line given one still has its own hash member cut
    # out for the chain check, which it passes: the walk then refuses the
    # key, without a seq.
    fake = "ab" * 32
    rechain(small_ledger, 0, lambda record: record["payload"]["config"].update(hash=fake))
    assert small_ledger.read_bytes().splitlines()[0].count(b'"hash":"') == 2
    assert reference_verify_chain(small_ledger) is None
    for read in (lambda: list(read_records(small_ledger)), lambda: Ledger.open(small_ledger)):
        with pytest.raises(DecodeError) as refused:
            read()
        assert (str(refused.value), refused.value.seq) == ("malformed HEADER config: hash: not a member", None)


def test_dict_device_ts_is_refused(small_ledger):
    # The earlier check accepted any JSON value here. A dict would put a
    # non-scalar (here one with its own "hash" member) before the record's
    # hash member, so the read pass refuses it by type.
    def edit(record):
        record["device_ts"] = {"hash": "cd" * 32}

    seq = _rewrite_last(small_ledger, edit)
    assert reference_verify_chain(small_ledger) is None
    assert verify_chain(small_ledger) == seq
    assert open_verdict(small_ledger) == seq


@pytest.mark.parametrize("device_ts", [{"t": 1}, [1], "1", True, 1.5])
def test_append_refuses_non_integer_device_ts(tmp_path, device_ts):
    path = tmp_path / "l.ndjson"
    with Ledger(stream_id="s", environment_profile="test", path=path, fsync=False) as ledger:
        with pytest.raises(ConfigurationError, match="device_ts"):
            ledger.append(ErrorInfo("k", "m"), backend_ts=0, version_id="v1", device_ts=device_ts)
        assert len(ledger) == 0
        ledger.append(ErrorInfo("k", "m"), backend_ts=0, version_id="v1", device_ts=5)
        ledger.append(ErrorInfo("k", "m"), backend_ts=0, version_id="v1", device_ts=None)
    assert verify_chain(path) is None


@pytest.mark.parametrize(
    "name, value",
    [("payload", ["x"]), ("payload", "x"), ("backend_ts", "1"), ("backend_ts", True), ("version_id", 7)],
)
def test_append_refuses_what_the_read_pass_refuses(name, value):
    ledger = Ledger(stream_id="s", environment_profile="test")
    args = {"value": ErrorInfo("k", "m"), "backend_ts": 0, "version_id": "v1"}
    args["value" if name == "payload" else name] = value
    with pytest.raises(ConfigurationError, match=name):
        ledger.append(**args)
    assert len(ledger) == 0
    with pytest.raises(ConfigurationError, match="stream_id"):
        Ledger(stream_id=7, environment_profile="test")


def test_in_memory_and_file_ledgers_end_at_one_head(tmp_path):
    # An in-memory ledger chains exactly as a file-backed one does, so the
    # same trial ends at the same record count and head with or without a file.
    path = tmp_path / "trial.ndjson"
    with small_trial(path).ledger as on_file:
        pass
    in_memory = small_trial().ledger
    assert verify_chain(path) is None
    *_, stored = read_records(path)
    assert len(in_memory) == len(on_file) == stored.seq + 1
    assert in_memory.last().hash == on_file.last().hash == stored.hash


# -- the line matchers against the JSON path ------------------------------------------


def json_path_records(path) -> list[EventEnvelope]:
    """The records of the ledger file at ``path`` as the JSON path alone
    reads them: each line through ``_parse_line``, then its payload through
    the annotation walk."""
    records = []
    for seq, line in enumerate(path.read_bytes().splitlines()):
        fields, prev_text, hash_text = ledger_module._parse_line(line, seq)
        value = decode_payload(fields[6], fields[7])
        records.append(EventEnvelope(*fields[:7], value, bytes.fromhex(prev_text), bytes.fromhex(hash_text)))
    return records


def _assert_reads_equal(event_type, line, record, reference):
    assert record._replace(payload=None) == reference._replace(payload=None)
    assert type(record.payload) is type(reference.payload) is PAYLOADS[event_type]
    # Floats compared by their bits, so a NaN equals itself.
    assert map_floats(record.payload, encode_float) == map_floats(reference.payload, encode_float)
    # Only a string with an escape, or the HEADER's config, keeps a line
    # from its matcher.
    matcher = ledger_module._line_reader(event_type, PAYLOADS[event_type])
    taken = matcher is not None and matcher(line.decode("latin-1")) is not None
    assert taken == (event_type != "HEADER" and b"\\" not in line)


@pytest.mark.parametrize("event_type", sorted(TYPED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_typed_read_gives_the_json_paths_records(event_type, data):
    values = data.draw(st.lists(TYPED[event_type], min_size=1, max_size=1 if event_type == "HEADER" else 4))
    envelopes = data.draw(st.lists(
        st.tuples(st.integers(0, 2**53), texts, st.none() | ints), min_size=len(values), max_size=len(values)
    ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "l.ndjson"
        with Ledger("s", "test", path=path, fsync=False) as ledger:
            for value, (backend_ts, version_id, device_ts) in zip(values, envelopes):
                ledger.append(value, backend_ts=backend_ts, version_id=version_id, device_ts=device_ts)
        lines = path.read_bytes().splitlines()
        typed, reference = list(read_records(path)), json_path_records(path)
    assert len(typed) == len(reference) == len(values)
    for line, record, expected, value in zip(lines, typed, reference, values):
        _assert_reads_equal(event_type, line, record, expected)
        assert map_floats(expected.payload, encode_float) == map_floats(value, encode_float)


# Lists the matchers convert in one piece, at their edges: empty, one item,
# and strings holding commas, where the strings are plain.
LIST_EDGES = {
    "empty lists": SnapshotInfo((), (), (), (), (), 0, "p", 0),
    "one item each": SnapshotInfo((-0.0,), (), ("observed",), (None,), (-(2**70),), 0, "p", 0),
    "commas in methods": SnapshotInfo(
        (0.5, float("nan")), (float("inf"),), ("imputed", "default", "observed"),
        ("a,b", ",", None), (None, 0, 7), 0, "p,q", 1,
    ),
    "empty batch and bytes": UpdateInfo("p", (), b"", b"", b""),
    "one batch seq": UpdateInfo("p", (0,), b"\x00", b"\xff" * 3, b"ab"),
}


@pytest.mark.parametrize("case", sorted(LIST_EDGES))
def test_a_list_at_its_edge_reads_as_the_json_path_reads_it(tmp_path, case):
    value = LIST_EDGES[case]
    path = tmp_path / "l.ndjson"
    with Ledger("s", "test", path=path, fsync=False) as ledger:
        ledger.append(value, backend_ts=0, version_id="v1")
    (line,), (record,), (expected,) = path.read_bytes().splitlines(), read_records(path), json_path_records(path)
    _assert_reads_equal(record.event_type, line, record, expected)
    assert map_floats(record.payload, encode_float) == map_floats(value, encode_float)


@pytest.mark.parametrize("text", ['"', "\\", "\x01", "\x7f", "é", "\u2028"])
def test_a_string_with_an_escape_takes_the_json_path(tmp_path, text):
    path = tmp_path / "l.ndjson"
    with Ledger("s", "test", path=path, fsync=False) as ledger:
        ledger.append(DatumInfo("p0", "f", 0.5, 1, None), backend_ts=0, version_id="v1")
        ledger.append(DatumInfo(f"p{text}0", "f", 0.5, 1, None), backend_ts=0, version_id="v1")
    typed = list(read_records(path))
    assert [record.payload.participant_id for record in typed] == ["p0", f"p{text}0"]
    for line, record, expected in zip(path.read_bytes().splitlines(), typed, json_path_records(path)):
        _assert_reads_equal("DATA_INGESTED", line, record, expected)


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> Path:
    tmp = tmp_path_factory.mktemp("golden")
    config = tmp / "golden.yaml"
    config.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    path = tmp / "golden.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(path)]) == 0
    return path


def _edit_line(path, seq, edit):
    """Apply ``edit`` to the bytes of the line of record ``seq``, give the
    line the hash of its body as stored, and re-chain every later record, so
    only the edit can be refused."""
    lines = path.read_bytes().splitlines()
    line = edit(lines[seq])
    assert line != lines[seq]
    prev = bytes.fromhex(json.loads(lines[seq - 1])["hash"])
    cut = line.index(b',"hash":"')
    at = cut + len(b',"hash":"')
    rec_hash = compute_record_hash(prev, line[:cut] + line[at + 65:])
    lines[seq] = line[:at] + rec_hash.hex().encode("ascii") + line[at + 64:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        json.loads(lines[seq])
    except ValueError:
        return  # no later record is read
    rechain(path, seq + 1, lambda record: None)


def _text(old: bytes, new: bytes):
    return lambda p, s: _edit_line(p, s, lambda line: line.replace(old, new, 1))


def _member(name, value):
    return lambda p, s: rechain(p, s, lambda record: record["payload"].update({name: value}))


def _swap_first_members(line: bytes) -> bytes:
    return re.sub(rb'"payload":\{("[a-z_]+":\d+),("[a-z_]+":\d+),', rb'"payload":{\2,\1,', line, count=1)


def _list_item(name, index, edit):
    """An edit of item ``index`` of the payload's list member ``name``."""
    def apply(p, s):
        def change(record):
            record["payload"][name][index] = edit(record["payload"][name][index])
        rechain(p, s, change)

    return apply


def _leading_zero_int_item(line: bytes) -> bytes:
    # The first integer item of source_device_ts (its other items are null).
    return re.sub(rb'("source_device_ts":\[[^\]]*?)([1-9])', rb"\g<1>0\2", line, count=1)


# Each edit: the event type of the record it edits, and how it edits it.
LINE_EDITS = {
    "uppercase hex digit": ("DATA_INGESTED", _member("value", "3FF0000000000000")),
    "inserted space": ("DATA_INGESTED", _text(b'"value":"', b'"value": "')),
    "negative zero": ("DECISION", _text(b'"decision_index":0,', b'"decision_index":-0,')),
    "leading zero": ("DECISION", _text(b'"decision_index":0,', b'"decision_index":00,')),
    "escaped letter": ("DATA_INGESTED", _text(b'"p000"', b'"p000\\u0041"')),
    "duplicated member": ("DATA_INGESTED", _text(b'"participant_id":"p000",', b'"participant_id":"p000",' * 2)),
    "swapped members": ("OUTCOME_OBSERVED", lambda p, s: _edit_line(p, s, _swap_first_members)),
    "true for an int": ("OUTCOME_OBSERVED", _member("device_ts", True)),
    "odd-length bytes": (
        "MODEL_UPDATE", lambda p, s: rechain(p, s, lambda r: r["payload"].update(post_state=r["payload"]["post_state"] + "a")),
    ),
    "refused by __post_init__": ("DECISION", _member("action", 2)),
    "15-digit float item": ("FEATURE_SNAPSHOT", _list_item("baseline", 0, lambda item: item[:15])),
    "uppercase float item": ("FEATURE_SNAPSHOT", _list_item("treatment", 0, lambda item: "3FF0000000000000")),
    "empty string list": ("FEATURE_SNAPSHOT", _member("provenance", [])),
    "string item with a comma": ("FEATURE_SNAPSHOT", _list_item("provenance", 0, lambda item: item + ",observed")),
    "leading-zero int item": ("FEATURE_SNAPSHOT", lambda p, s: _edit_line(p, s, _leading_zero_int_item)),
    "negative zero int item": ("MODEL_UPDATE", _text(b'"batch_seqs":[', b'"batch_seqs":[-0,')),
}


def _audit_answers(path, out) -> list[tuple[int, bool]]:
    answers = []
    for argv in (["replay-verify"], ["monitor-report", "--replay", "--out", str(out)]):
        code = main([*argv, "--ledger", str(path)])
        answers.append((code, out.exists()))
    return answers


@pytest.mark.parametrize("edit", sorted(LINE_EDITS))
def test_a_line_edit_gets_the_json_paths_verdict(tmp_path, golden, capsys, monkeypatch, edit):
    event_type, apply = LINE_EDITS[edit]
    edited = tmp_path / "edited.ndjson"
    shutil.copyfile(golden, edited)
    apply(edited, first_seq(edited, event_type))
    typed = _audit_answers(edited, tmp_path / "typed.txt"), capsys.readouterr()
    # With no line matcher, every line takes the JSON path.
    monkeypatch.setattr(ledger_module, "_line_reader", lambda event_type, cls: None)
    plain = _audit_answers(edited, tmp_path / "plain.txt"), capsys.readouterr()
    assert typed == plain
    assert typed[0] == [(2, False), (2, False)]
    assert typed[1].err.count("\n") == 2


# -- verify or defer: hash texts the matchers leave to the chain check ----------------


def json_path_verdict(path) -> tuple[int, str | None, int | None]:
    """The ledger file at ``path`` as the JSON path alone reads it: each line
    through ``_parse_line``, then its seq, its ``prev_hash`` text against the
    hash text before it and its ``hash`` text against the SHA-256 of its
    body, then its payload through the annotation walk. Returns the records
    read before the first refusal, with that DecodeError's message and seq
    (None and None if there is none)."""
    prev_hash, prev_text = GENESIS_HASH, GENESIS_HASH.hex()
    count = 0
    try:
        for seq, line in enumerate(path.read_bytes().splitlines()):
            fields, line_prev_text, hash_text = ledger_module._parse_line(line, seq)
            if fields[0] != seq:
                raise DecodeError(f"record {seq} carries seq {fields[0]}", seq=seq)
            if line_prev_text != prev_text:
                raise DecodeError(f"record {seq} does not chain from the record before it", seq=seq)
            cut = line.index(b',"hash":"')
            digest = compute_record_hash(prev_hash, line[:cut] + line[cut + len(b',"hash":"') + 65:])
            if digest.hex() != hash_text:
                raise DecodeError(f"record {seq} does not match its hash", seq=seq)
            decode_payload(fields[6], fields[7])
            prev_hash, prev_text = digest, hash_text
            count += 1
    except DecodeError as exc:
        return count, str(exc), exc.seq
    return count, None, None


def read_verdict(path) -> tuple[int, str | None, int | None]:
    """What :func:`json_path_verdict` returns, from ``read_records``."""
    count = 0
    try:
        for _ in read_records(path):
            count += 1
    except DecodeError as exc:
        return count, str(exc), exc.seq
    return count, None, None


def _member_span(line: bytes, name: bytes) -> tuple[int, int]:
    """Where the text of the string member ``name`` starts and ends in a line."""
    start = line.index(b'"' + name + b'":"') + len(name) + 4
    return start, line.index(b'"', start)


# Each edit of a hash text (64 lowercase hex digits) that a loose matcher
# regex admits or not; the JSON path refuses every one.
HASH_TEXT_EDITS = {
    "uppercase digit": lambda text: re.sub(rb"[a-f]", lambda m: m[0].upper(), text, count=1),
    "non-hex letter": lambda text: b"g" + text[1:],
    "non-ASCII byte": lambda text: text[:5] + b"\xe9" + text[6:],
    "escape, 64 characters": lambda text: b"\\u0061" + text[6:],
    "escape for a digit": lambda text: text[:7] + b"\\u0061" + text[8:],
    "63 characters": lambda text: text[:-1],
    "65 characters": lambda text: text + b"0",
}


def _rechain_from(lines: list[bytes], seq: int, keep_hash: bool) -> None:
    """Give line ``seq`` the SHA-256 of its body as stored (unless
    ``keep_hash``: its hash member is the edit), and re-derive every later
    line's ``prev_hash`` and ``hash`` from there."""
    start, end = _member_span(lines[seq - 1], b"hash") if seq else (0, 0)
    prev = bytes.fromhex(lines[seq - 1][start:end].decode()) if seq else GENESIS_HASH
    for i in range(seq, len(lines)):
        line = lines[i]
        if i > seq:
            start, end = _member_span(line, b"prev_hash")
            line = line[:start] + prev.hex().encode() + line[end:]
        start, end = _member_span(line, b"hash")
        digest = compute_record_hash(prev, line[:start - len(b',"hash":"')] + line[end + 1:])
        if not (i == seq and keep_hash):
            line = line[:start] + digest.hex().encode() + line[end:]
        lines[i], prev = line, digest


@pytest.mark.parametrize("edit", sorted(HASH_TEXT_EDITS))
def test_a_hash_text_edit_gets_the_json_paths_verdict(tmp_path, small_ledger, edit):
    # A typed line whose seq, link or hash comparison fails is read again by
    # the JSON path, so a hash text the matcher's regex admits gets the
    # message and seq the JSON path gives, even with a wrong seq beside it.
    original = small_ledger.read_bytes().splitlines()
    seqs = {event_type: first_seq(small_ledger, event_type) for event_type in (
        "HEADER", "DATA_INGESTED", "FEATURE_SNAPSHOT", "DECISION", "OUTCOME_OBSERVED", "MODEL_UPDATE"
    )}
    edited = tmp_path / "edited.ndjson"
    for event_type, seq in seqs.items():
        for member in (b"hash", b"prev_hash"):
            for wrong_seq in (False, True):
                for rechained in (False, True):
                    lines = list(original)
                    start, end = _member_span(lines[seq], member)
                    text = HASH_TEXT_EDITS[edit](lines[seq][start:end])
                    if text == lines[seq][start:end]:
                        continue  # the genesis prev_hash has no letter to upper-case
                    line = lines[seq][:start] + text + lines[seq][end:]
                    if wrong_seq:
                        line = line.replace(b'"seq":%d,' % seq, b'"seq":%d,' % (seq + 1), 1)
                    lines[seq] = line
                    if rechained:
                        _rechain_from(lines, seq, keep_hash=member == b"hash")
                    edited.write_bytes(b"\n".join(lines) + b"\n")
                    expected = json_path_verdict(edited)
                    case = (event_type, member, wrong_seq, rechained)
                    assert expected[2] == seq, case  # the edited line is the first one refused
                    assert read_verdict(edited) == expected, case
                    assert verify_chain(edited) == expected[0] == seq, case
                    # A text of 64 characters, none a quote, passes the
                    # matcher's regex: only the comparisons refuse it.
                    matcher = ledger_module._line_reader(event_type, PAYLOADS[event_type])
                    taken = matcher is not None and matcher(line.decode("latin-1")) is not None
                    assert taken == (event_type != "HEADER" and len(text) == 64), case
