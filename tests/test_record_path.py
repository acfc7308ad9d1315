"""The single-step append against the two-envelope append it replaced, the
compiled record writers against ``map_floats``, and the read pass on hashes
written in a form ``bytes.fromhex`` accepts but the canonical encoding does
not.

``reference_append`` keeps the earlier append as the oracle: an envelope
with an empty hash, ``canonical_json_bytes`` of its ``body_dict()`` (which
walks the whole body for raw floats), the hash, then a second envelope. The
new append walks only a dict payload and encodes the body once; for any
JSON-like payload it must give the same line and hash, or refuse it with the
same message. A typed payload (a dataclass) is written by its class's
compiled writer: for every well-typed value of every payload class, under
any envelope strings, it must give the line and hash of the oracle fed
``map_floats(value, encode_float)``, and it refuses a member whose type is
not its annotation's, or a value of another event type's class, before
anything is written.
"""

import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_run_config
from ledgerloop.config import config_digest, header_config_dict
from ledgerloop.errors import ConfigurationError, DecodeError
from ledgerloop.events import (
    PAYLOADS,
    AlertInfo,
    DatumInfo,
    ErrorInfo,
    HeaderInfo,
    OutcomeInfo,
    SnapshotInfo,
    UpdateInfo,
    VersionInfo,
    append,
)
from ledgerloop.ledger import (
    ENVIRONMENT_PROFILES,
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
from ledgerloop.policy import PROVENANCE_TAGS, DecisionRecord


def reference_append(prev_hash, seq, event_type, payload, backend_ts, version_id, device_ts,
                     stream_id="s", environment_profile="test"):
    fields = dict(
        seq=seq,
        stream_id=stream_id,
        environment_profile=environment_profile,
        device_ts=device_ts,
        backend_ts=backend_ts,
        version_id=version_id,
        event_type=event_type,
        payload=payload,
        prev_hash=prev_hash,
    )
    body = canonical_json_bytes(EventEnvelope(**fields, hash=b"").body_dict())
    rec_hash = compute_record_hash(prev_hash, body)
    return EventEnvelope(**fields, hash=rec_hash)


leaves = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True)
)
keys = st.text(max_size=4) | st.integers(-2, 2)
values = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.tuples(kids, kids)
    | st.dictionaries(keys, kids, max_size=3),
    max_leaves=12,
)
appends = st.lists(
    st.tuples(
        st.sampled_from(["DATA_INGESTED", "DECISION", "MODEL_UPDATE", "ERROR", "ALERT"]),
        st.dictionaries(keys, values, max_size=4),
        st.integers(0, 2**53),
        st.text(max_size=6),
        st.none() | st.integers(-(2**40), 2**40),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(appends)
def test_append_matches_the_two_envelope_reference(calls):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "l.ndjson"
        with Ledger("s", "test", path=path, fsync=False) as ledger:
            prev_hash, lines = GENESIS_HASH, []
            for event_type, payload, backend_ts, version_id, device_ts in calls:
                try:
                    expected = reference_append(
                        prev_hash, len(lines), event_type, payload, backend_ts, version_id, device_ts
                    )
                except ConfigurationError as exc:
                    with pytest.raises(ConfigurationError) as refused:
                        ledger.append(event_type, payload, backend_ts, version_id, device_ts)
                    assert str(refused.value) == str(exc)
                    assert len(ledger) == len(lines)
                    continue
                record = ledger.append(event_type, payload, backend_ts, version_id, device_ts)
                assert record == expected
                assert record.to_line() == expected.to_line()
                prev_hash = expected.hash
                lines.append(expected.to_line())
        assert path.read_bytes() == b"".join(line + b"\n" for line in lines)
        if lines:
            assert [r.to_line() for r in read_records(path)] == lines


def _bits(n: int) -> float:
    return struct.unpack(">d", n.to_bytes(8, "big"))[0]


# Every float bit pattern (NaN payloads included), -0.0, the infinities, and
# a float subclass, which a float member takes too.
any_float = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(0, 2**64 - 1).map(_bits)
    | st.sampled_from([-0.0, math.inf, -math.inf, _bits(0x7FF8000000000BAD), _bits(0xFFF0000000000001)])
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
)
texts = st.text(max_size=5) | st.sampled_from(["", "é", "日本", "\u2028", '"%s\\'])
ints = st.integers() | st.sampled_from([0, -1, 2**64, -(2**70)])
probabilities = st.floats(0.0, 1.0) | st.just(-0.0)


@st.composite
def snapshots(draw):
    n_base, n_treat = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    tags = draw(st.lists(st.sampled_from(PROVENANCE_TAGS), min_size=n_base + n_treat,
                         max_size=n_base + n_treat))
    methods = [draw(texts.filter(bool)) if tag == "imputed" else draw(st.none() | texts)
               for tag in tags]
    return SnapshotInfo(
        baseline=tuple(draw(st.lists(any_float, min_size=n_base, max_size=n_base))),
        treatment=tuple(draw(st.lists(any_float, min_size=n_treat, max_size=n_treat))),
        provenance=tuple(tags),
        imputation_methods=tuple(methods),
        source_device_ts=tuple(draw(st.lists(st.none() | ints, min_size=len(tags), max_size=len(tags)))),
        assembled_ts=draw(ints),
        participant_id=draw(texts),
        decision_index=draw(ints),
    )


@st.composite
def decisions(draw):
    fallback = draw(st.booleans())
    return DecisionRecord(
        participant_id=draw(texts),
        decision_index=draw(st.integers(0, 2**64 - 1)),
        pi_raw=draw(probabilities),
        pi=draw(probabilities),
        seed=draw(ints),
        action=draw(st.sampled_from([0, 1])),
        fallback=fallback,
        fallback_reason=draw(texts.filter(bool) if fallback else st.none() | texts),
        version_id=draw(texts),
    )


RUN_CONFIG = make_run_config()


def _header(stream_id, profile, seed, participants, digest):
    config = header_config_dict(RUN_CONFIG, participants)
    return HeaderInfo(stream_id, profile, seed, config, digest or config_digest(config))


# Well-typed values of every payload class, as the ledger's writers make them.
TYPED = {
    "HEADER": st.builds(_header, texts, texts, ints, st.lists(texts, max_size=3), st.none() | texts),
    "DATA_INGESTED": st.builds(DatumInfo, texts, texts, any_float, ints, st.none() | ints),
    "FEATURE_SNAPSHOT": snapshots(),
    "DECISION": decisions(),
    "OUTCOME_OBSERVED": st.builds(OutcomeInfo, texts, ints, any_float, ints),
    "MODEL_UPDATE": st.builds(
        UpdateInfo, texts, st.lists(ints, max_size=4).map(tuple), st.binary(max_size=4),
        st.binary(max_size=4), st.binary(max_size=4),
    ),
    "VERSION_CHANGE": st.builds(VersionInfo, texts, texts, st.none() | texts),
    "ERROR": st.builds(ErrorInfo, texts, texts, st.none() | texts, st.none() | ints),
    "ALERT": st.builds(AlertInfo, texts, texts, any_float, any_float, texts, st.none() | ints, texts),
}


def test_every_payload_class_has_a_strategy():
    assert sorted(TYPED) == sorted(PAYLOADS)


# Envelope strings that JSON escapes: the quote, the backslash, control
# characters and non-ASCII, beside plain ones.
envelope_texts = texts | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", "日本", "\u2028", 'a"b\\c\n'])


@pytest.mark.parametrize("event_type", sorted(TYPED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compiled_encoder_writes_the_reference_bytes(event_type, data):
    # The compiled writer against map_floats(value, encode_float) encoded
    # with canonical_json_bytes, on both storage modes, with every profile,
    # escaped envelope strings and a version_id that changes partway.
    # Only a ledger's first record may be a HEADER.
    values = data.draw(st.lists(TYPED[event_type], min_size=1, max_size=1 if event_type == "HEADER" else 3))
    envelopes = data.draw(st.lists(
        st.tuples(st.integers(0, 2**53), st.none() | ints), min_size=len(values), max_size=len(values)
    ))
    stream_id = data.draw(envelope_texts)
    profile = data.draw(st.sampled_from(ENVIRONMENT_PROFILES))
    versions = data.draw(st.tuples(envelope_texts, envelope_texts))
    switch = data.draw(st.integers(0, len(values)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "l.ndjson"
        with Ledger(stream_id, profile, path=path, fsync=False) as on_file:
            in_memory = Ledger(stream_id, profile)
            prev_hash, lines = GENESIS_HASH, []
            for i, (value, (backend_ts, device_ts)) in enumerate(zip(values, envelopes)):
                version_id = versions[i >= switch]
                expected = reference_append(
                    prev_hash, len(lines), event_type, map_floats(value, encode_float),
                    backend_ts, version_id, device_ts, stream_id, profile,
                )
                for ledger in (on_file, in_memory):
                    record = append(ledger, value, backend_ts=backend_ts, version_id=version_id,
                                    device_ts=device_ts)
                    assert record.hash == expected.hash
                    assert ledger.last().to_line() == expected.to_line()
                prev_hash = expected.hash
                lines.append(expected.to_line())
        assert path.read_bytes() == b"".join(line + b"\n" for line in lines)
        # A typed read gives the same records; a line whose envelope strings
        # hold an escape is read by the JSON path.
        read = list(read_records(path, PAYLOADS))
        assert [r.to_line() for r in read] == lines
        assert read[-1].hash == prev_hash
        for record in read:
            if not all(re.fullmatch(r"[ !#-\[\]-~]*", text) for text in (record.stream_id, record.version_id)):
                assert type(record.payload) is dict
def test_ill_typed_members_are_refused_before_anything_is_written(tmp_path):
    # Each of these was written at one time, and every audit then refused
    # the file: an int value, a bool action, a float device_ts.
    probes = [
        (DatumInfo("p0", "f", 1, 5, None), "DATA_INGESTED payload: value: expected a float"),
        (DecisionRecord("p0", 0, 0.5, 0.5, 7, True, False),
         "DECISION payload: action: expected an integer, got True"),
        (OutcomeInfo("p0", 0, 0.5, 5.0), "OUTCOME_OBSERVED payload: device_ts: expected an integer"),
    ]
    path = tmp_path / "l.ndjson"
    with Ledger("s", "test", path=path, fsync=False) as ledger:
        append(ledger, OutcomeInfo("p0", 0, 0.5, 5), backend_ts=0, version_id="v1")
        before = path.read_bytes()
        for value, message in probes:
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                append(ledger, value, backend_ts=1, version_id="v1")
            assert len(ledger) == 1
            assert path.read_bytes() == before
        append(ledger, OutcomeInfo("p0", 1, 0.5, 6), backend_ts=1, version_id="v1")
    assert [r.seq for r in read_records(path)] == [0, 1]


@pytest.mark.parametrize("event_type", sorted(TYPED))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_payload_of_another_event_types_class_is_refused(event_type, data):
    # Such a record was once written, and every audit then refused the file
    # ("malformed OUTCOME_OBSERVED payload: feature: not a member").
    owner = data.draw(st.sampled_from(sorted(set(TYPED) - {event_type})))
    value = data.draw(TYPED[owner])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "l.ndjson"
        with Ledger("s", "test", path=path, fsync=False) as ledger:
            append(ledger, DatumInfo("p000", "engagement", 1.0, 5, None), backend_ts=0, version_id="v1")
        before = path.read_bytes()
        with Ledger.open(path) as reopened:
            with pytest.raises(ConfigurationError) as refused:
                reopened.append(event_type, value, backend_ts=1, version_id="v1")
            assert str(refused.value) == (
                f"{event_type} payload: a {type(value).__name__} is the payload of {owner}"
            )
            assert len(reopened) == 1
            assert path.read_bytes() == before
            # A dict payload is taken for any event type but a late HEADER.
            if event_type != "HEADER":
                reopened.append(event_type, {"any": "thing"}, backend_ts=1, version_id="v1")
        assert verify_chain(path) is None


def test_append_refuses_a_payload_that_is_neither_a_dict_nor_typed():
    ledger = Ledger("s", "test")
    for payload in ([1], "x", None, DatumInfo):
        with pytest.raises(ConfigurationError, match="payload must be a dict or a payload dataclass"):
            ledger.append("ALERT", payload, backend_ts=0, version_id="v1")
    assert len(ledger) == 0


def test_append_refusal_names_the_path_inside_the_payload():
    ledger = Ledger("s", "test")
    with pytest.raises(ConfigurationError, match=r"raw float at \$\.payload\.a\[1\]\.b;"):
        ledger.append("ALERT", {"a": [0, {"b": 0.5}]}, backend_ts=0, version_id="v1")
    with pytest.raises(ConfigurationError, match=r"non-string key at \$\.payload\.a: 3"):
        ledger.append("ALERT", {"a": {3: "x"}}, backend_ts=0, version_id="v1")
    assert len(ledger) == 0


@pytest.fixture
def three_records(tmp_path):
    path = tmp_path / "l.ndjson"
    with Ledger("s", "test", path=path, fsync=False) as ledger:
        for i in range(3):
            ledger.append("ALERT", {"i": i}, backend_ts=i, version_id="v1")
    return path


def _rehash_last(path, edit):
    """Edit the last record's JSON object and store it with a hash computed
    the way a writer computes it, over the canonical body as edited."""
    lines = path.read_bytes().splitlines()
    record = json.loads(lines[-1])
    edit(record)
    rec_hash = record.pop("hash")
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("ascii")
    record["hash"] = rec_hash(body) if callable(rec_hash) else rec_hash
    lines[-1] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("ascii")
    path.write_bytes(b"\n".join(lines) + b"\n")
    return len(lines) - 1


def _upper_prev_hash(record):
    prev = bytes.fromhex(record["prev_hash"])
    record["prev_hash"] = prev.hex().upper()
    record["hash"] = lambda body: compute_record_hash(prev, body).hex()


def _upper_hash(record):
    prev = bytes.fromhex(record["prev_hash"])
    record["hash"] = lambda body: compute_record_hash(prev, body).hex().upper()


def _spaced_hash(record):
    prev = bytes.fromhex(record["prev_hash"])
    record["hash"] = lambda body: " ".join(
        compute_record_hash(prev, body).hex()[i:i + 2] for i in range(0, 64, 2)
    )


@pytest.mark.parametrize("edit", [_upper_prev_hash, _upper_hash, _spaced_hash])
def test_hashes_must_be_lowercase_hex(three_records, edit):
    seq = _rehash_last(three_records, edit)
    assert verify_chain(three_records) == seq
    with pytest.raises(DecodeError) as refused:
        list(read_records(three_records))
    assert refused.value.seq == seq


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(extra=1),
        lambda r: r.pop("device_ts"),
        lambda r: r.update(seq=True),
        lambda r: r.update(backend_ts="2"),
        lambda r: r.update(event_type=None),
        lambda r: r.update(prev_hash=7),
    ],
    ids=["extra member", "missing member", "bool seq", "string backend_ts", "null event_type",
         "int prev_hash"],
)
def test_envelope_shape_is_checked_before_the_hash(three_records, edit):
    def honest(record):
        prev = bytes.fromhex(record["prev_hash"])
        edit(record)
        record["hash"] = lambda body: compute_record_hash(prev, body).hex()

    seq = _rehash_last(three_records, honest)
    assert verify_chain(three_records) == seq
