"""The single-step append against the two-envelope append it replaced, and
the read pass on hashes written in a form ``bytes.fromhex`` accepts but the
canonical encoding does not.

``reference_append`` keeps the earlier append as the oracle: an envelope
with an empty hash, ``canonical_json_bytes`` of its ``body_dict()`` (which
walks the whole body for raw floats), the hash, then a second envelope. The
new append walks only the payload and encodes the body once; for any
JSON-like payload it must give the same line and hash, or refuse it with the
same message.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerloop.errors import ConfigurationError, DecodeError
from ledgerloop.ledger import (
    GENESIS_HASH,
    EventEnvelope,
    Ledger,
    canonical_json_bytes,
    compute_record_hash,
    read_records,
    verify_chain,
)


def reference_append(prev_hash, seq, event_type, payload, backend_ts, version_id, device_ts):
    fields = dict(
        seq=seq,
        stream_id="s",
        environment_profile="test",
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
            assert [r.hash for r in read_records(path)] == [r.hash for r in ledger.records()]


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
