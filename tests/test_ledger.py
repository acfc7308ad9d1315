import json
import math
import struct

import numpy as np
import pytest

from ledgerloop.errors import (
    ConfigurationError,
    DecodeError,
    IsolationError,
    StorageError,
)
from ledgerloop.ledger import (
    GENESIS_HASH,
    Ledger,
    canonical_json_bytes,
    compute_record_hash,
    decode_float,
    encode_float,
    read_records,
    verify_chain,
)


def make_ledger(tmp_path=None, profile="test", name="stream-1"):
    path = None if tmp_path is None else tmp_path / "events.ndjson"
    return Ledger(stream_id=name, environment_profile=profile, path=path)


def append_n(ledger, n, event_type="ERROR"):
    out = []
    for i in range(n):
        out.append(
            ledger.append(
                event_type,
                {"kind": "test", "message": f"e{i}", "participant_id": None, "decision_index": None},
                backend_ts=1000 + i,
                version_id="v1",
            )
        )
    return out


# -- encode_float / decode_float -------------------------------------------------


def test_encode_float_reference_values():
    assert encode_float(1.0) == "3ff0000000000000"
    assert encode_float(0.0) == "0000000000000000"
    assert encode_float(-0.0) == "8000000000000000"
    assert encode_float(0.0) != encode_float(-0.0)


def test_decode_float_round_trip_known():
    assert decode_float("3ff0000000000000") == 1.0
    assert math.copysign(1.0, decode_float("8000000000000000")) == -1.0


def test_float_round_trip_many_random_bit_patterns():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    raw = words.byteswap().view(np.uint8).tobytes()  # big-endian
    # decode -> encode must reproduce all bytes exactly (NaN payloads included)
    floats = struct.unpack(f">{len(words)}d", raw)
    out = struct.pack(f">{len(words)}d", *floats)
    assert out == raw
    # spot-check the public single-value API on a slice
    for w in words[:2000]:
        h = struct.pack(">Q", int(w)).hex()
        assert encode_float(decode_float(h)) == h


def test_decode_float_rejects_malformed():
    with pytest.raises(DecodeError):
        decode_float("xyz")
    with pytest.raises(DecodeError):
        decode_float("3ff00000000000")  # too short
    with pytest.raises(DecodeError):
        decode_float("3ff0000000000000ff")


def test_nan_payload_survives():
    nan_hex = "7ff8000000000dea"
    assert encode_float(decode_float(nan_hex)) == nan_hex


# -- canonical json --------------------------------------------------------------


def test_canonical_json_sorted_and_compact():
    assert canonical_json_bytes({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'


def test_canonical_json_rejects_raw_floats():
    with pytest.raises(ConfigurationError):
        canonical_json_bytes({"x": 1.5})
    with pytest.raises(ConfigurationError):
        canonical_json_bytes({"x": [1.5]})


def test_canonical_json_deterministic():
    payload = {"z": "3ff0000000000000", "a": {"n": None, "b": True}}
    assert canonical_json_bytes(payload) == canonical_json_bytes(dict(reversed(list(payload.items()))))


# -- append ---------------------------------------------------------------------


def test_first_append_has_genesis_prev_hash(tmp_path):
    ledger = make_ledger(tmp_path)
    rec = append_n(ledger, 1)[0]
    assert rec.seq == 0
    assert rec.prev_hash == GENESIS_HASH


def test_chain_rule(tmp_path):
    ledger = make_ledger(tmp_path)
    r0, r1 = append_n(ledger, 2)
    assert (r0.seq, r1.seq) == (0, 1)
    assert r1.prev_hash == r0.hash


def test_profile_mismatch_is_isolation_error(tmp_path):
    ledger = Ledger(stream_id="s", environment_profile="prod-sim", path=tmp_path / "l.ndjson")
    with pytest.raises(IsolationError):
        ledger.append(
            "ERROR",
            {"kind": "k", "message": "m", "participant_id": None, "decision_index": None},
            backend_ts=0,
            version_id="v1",
            environment_profile="dev",
        )


def test_stream_mismatch_is_isolation_error():
    ledger = make_ledger()
    with pytest.raises(IsolationError):
        ledger.append("ERROR", {}, backend_ts=0, version_id="v1", stream_id="other")


def test_append_only_grows_file(tmp_path):
    ledger = make_ledger(tmp_path)
    sizes = []
    for _ in range(4):
        append_n(ledger, 1)
        sizes.append(ledger.path.stat().st_size)
    assert sizes == sorted(sizes) and len(set(sizes)) == 4


def test_refuses_to_overwrite_existing_file(tmp_path):
    make_ledger(tmp_path)
    with pytest.raises(StorageError):
        make_ledger(tmp_path)


def test_concurrent_appends_linearize(tmp_path):
    import threading

    ledger = make_ledger(tmp_path)
    errors = []

    def worker(tag):
        try:
            for i in range(25):
                ledger.append(
                    "ERROR",
                    {"kind": "t", "message": f"{tag}-{i}", "participant_id": None, "decision_index": None},
                    backend_ts=i,
                    version_id="v1",
                )
        except Exception as exc:  # pragma: no cover - failure reporting only
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(ledger) == 200
    assert verify_chain(ledger.path) is None


def test_header_only_at_seq_zero():
    ledger = make_ledger()
    append_n(ledger, 1)
    with pytest.raises(ConfigurationError):
        ledger.append("HEADER", {}, backend_ts=0, version_id="v1")


# -- iterate ---------------------------------------------------------------------


def test_iterate_empty_ledger():
    ledger = make_ledger()
    assert list(ledger.iterate()) == []


def test_iterate_filter_by_type():
    ledger = make_ledger()
    kinds = [
        "ERROR", "DECISION", "ERROR", "DECISION", "ALERT",
        "ERROR", "DECISION", "ERROR", "ALERT", "ERROR",
    ]
    for i, kind in enumerate(kinds):
        payload = {"marker": i}
        ledger.append(kind, payload, backend_ts=i, version_id="v1")
    decisions = list(ledger.iterate(event_types={"DECISION"}))
    assert [r.payload["marker"] for r in decisions] == [1, 3, 6]
    assert len(list(ledger.iterate())) == 10


def test_iterate_past_end_is_empty():
    ledger = make_ledger()
    append_n(ledger, 3)
    assert list(ledger.iterate(from_seq=3)) == []
    assert len(list(ledger.iterate(from_seq=1))) == 2


# -- verify_chain ----------------------------------------------------------------


def test_verify_ok(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 8)
    assert verify_chain(ledger) is None
    assert verify_chain(ledger.path) is None


def test_verify_in_memory():
    ledger = make_ledger()
    append_n(ledger, 5)
    assert verify_chain(ledger) is None


def test_flip_payload_byte_detected_at_that_seq(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 8)
    lines = ledger.path.read_bytes().splitlines()
    target = lines[5]
    idx = target.index(b'"message":"e5"') + len('"message":"')
    corrupted = target[:idx] + b"X" + target[idx + 1:]
    lines[5] = corrupted
    ledger.path.write_bytes(b"\n".join(lines) + b"\n")
    assert verify_chain(ledger.path) == 5


def test_delete_and_renumber_detected_at_gap(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 6)
    records = [json.loads(line) for line in ledger.path.read_bytes().splitlines()]
    del records[3]
    for i, rec in enumerate(records):
        rec["seq"] = i  # renumber to hide the gap; hashes now lie
    ledger.path.write_bytes(
        b"\n".join(canonical_json_bytes(r) for r in records) + b"\n"
    )
    assert verify_chain(ledger.path) == 3


def test_truncation_to_prefix_still_verifies(tmp_path):
    # Append-only means a reader seeing a prefix must still verify cleanly.
    ledger = make_ledger(tmp_path)
    append_n(ledger, 6)
    lines = ledger.path.read_bytes().splitlines()
    prefix = tmp_path / "prefix.ndjson"
    prefix.write_bytes(b"\n".join(lines[:3]) + b"\n")
    assert verify_chain(prefix) is None


def test_fuzz_single_byte_corruption_always_detected(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 10)
    original = ledger.path.read_bytes()
    line_starts = []
    pos = 0
    for line in original.splitlines(keepends=True):
        line_starts.append(pos)
        pos += len(line)
    rng = np.random.default_rng(99)
    mutated_path = tmp_path / "mutated.ndjson"
    for _ in range(300):
        i = int(rng.integers(0, len(original)))
        old = original[i]
        new = int(rng.integers(0, 256))
        if new == old:
            new = (new + 1) % 256
        mutated = original[:i] + bytes([new]) + original[i + 1:]
        mutated_path.write_bytes(mutated)
        corrupted_line = sum(1 for s in line_starts if s <= i) - 1
        bad = verify_chain(mutated_path)
        assert bad is not None
        assert bad <= corrupted_line


# -- Ledger.open / read_records ---------------------------------------------------


def test_open_round_trip(tmp_path):
    ledger = make_ledger(tmp_path)
    originals = append_n(ledger, 5)
    ledger.close()
    reopened = Ledger.open(tmp_path / "events.ndjson")
    assert [r.hash for r in reopened.records()] == [r.hash for r in originals]
    # appending continues the chain
    more = reopened.append("ALERT", {"note": "x"}, backend_ts=9, version_id="v1")
    assert more.seq == 5
    assert more.prev_hash == originals[-1].hash
    assert verify_chain(reopened) is None


def test_read_records_decode_error_carries_seq(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 4)
    data = ledger.path.read_bytes().splitlines()
    data[2] = b"{not json"
    ledger.path.write_bytes(b"\n".join(data) + b"\n")
    with pytest.raises(DecodeError) as err:
        list(read_records(ledger.path))
    assert err.value.seq == 2


def test_envelope_line_round_trip():
    ledger = make_ledger()
    rec = append_n(ledger, 1)[0]
    line = rec.to_line()
    parsed = json.loads(line)
    body = {k: v for k, v in parsed.items() if k != "hash"}
    assert compute_record_hash(bytes.fromhex(parsed["prev_hash"]), canonical_json_bytes(body)) == bytes.fromhex(parsed["hash"])


def test_append_writes_exactly_to_line_for_nested_payload_and_hash_keys(tmp_path):
    ledger = make_ledger(tmp_path)
    payloads = [
        {"payload": {"payload": "inner", "hash": "not-a-hash"}, "hash": [1, {"hash": None}]},
        {"a": {"payload": [{"payload": {"payload": 0}}]}, "prev_hash": "x", "seq": -1},
        {},
    ]
    records = [
        ledger.append("ALERT", p, backend_ts=i, version_id="v1") for i, p in enumerate(payloads)
    ]
    lines = ledger.path.read_bytes().split(b"\n")
    assert lines[-1] == b""
    assert lines[:-1] == [record.to_line() for record in records]
    assert verify_chain(ledger.path) is None


class _TearingHandle:
    """File handle stand-in whose next write puts half the bytes in the file
    and then fails, as a full disk or an I/O error can."""

    def __init__(self, fh):
        self._fh = fh
        self.armed = True

    def write(self, data):
        if not self.armed:
            return self._fh.write(data)
        self.armed = False
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_failed_append_leaves_no_torn_bytes(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 1)
    size = ledger.path.stat().st_size
    ledger._fh = _TearingHandle(ledger._fh)
    with pytest.raises(StorageError):
        append_n(ledger, 1)
    assert ledger.path.stat().st_size == size
    assert len(ledger) == 1
    more = ledger.append("ALERT", {"note": "after"}, backend_ts=5, version_id="v1")
    assert more.seq == 1
    ledger.close()
    assert verify_chain(ledger.path) is None
    assert [r.hash for r in read_records(ledger.path)] == [r.hash for r in ledger.records()]


def test_failed_append_after_reopen_cuts_back_to_existing_end(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 3)
    ledger.close()
    reopened = Ledger.open(tmp_path / "events.ndjson")
    size = reopened.path.stat().st_size
    reopened._fh = _TearingHandle(reopened._fh)
    with pytest.raises(StorageError):
        append_n(reopened, 1)
    assert reopened.path.stat().st_size == size
    assert verify_chain(reopened.path) is None


def test_append_refused_when_torn_bytes_cannot_be_cut(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 1)
    handle = _TearingHandle(ledger._fh)

    def failing_truncate(size):
        raise OSError(5, "Input/output error")

    handle.truncate = failing_truncate
    ledger._fh = handle
    with pytest.raises(StorageError):
        append_n(ledger, 1)
    with pytest.raises(StorageError, match="torn"):
        append_n(ledger, 1)
    assert len(ledger) == 1


def test_raw_float_with_valid_chain_is_reported_at_its_seq(tmp_path):
    ledger = make_ledger(tmp_path)
    append_n(ledger, 3)
    lines = ledger.path.read_bytes().splitlines()
    body = json.loads(lines[2])
    del body["hash"]
    body["payload"]["message"] = 0.5
    raw = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("ascii")
    body["hash"] = compute_record_hash(bytes.fromhex(body["prev_hash"]), raw).hex()
    lines[2] = json.dumps(body, sort_keys=True, separators=(",", ":")).encode("ascii")
    ledger.path.write_bytes(b"\n".join(lines) + b"\n")
    assert verify_chain(ledger.path) == 2
