"""The single verified read pass against the two-encode chain check it
replaced.

``reference_verify_chain`` is that earlier check, kept here as the oracle:
parse, then one canonical encode of the body for the hash and one of the
whole record for the canonical-form check. The new pass parses once,
re-encodes once and hashes the stored line with its ``hash`` member cut out;
on every input below it must name the same first bad seq, and
``Ledger.open`` must fail exactly where ``verify_chain`` does.
"""

import json

import numpy as np
import pytest

from conftest import make_run_config
from ledgerloop.errors import ConfigurationError, DecodeError
from ledgerloop.ledger import (
    GENESIS_HASH,
    EventEnvelope,
    Ledger,
    canonical_json_bytes,
    compute_record_hash,
    verify_chain,
)
from ledgerloop.twin import EnvironmentSpec, run_trial


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
        try:
            body = canonical_json_bytes(record.body_dict())
        except ConfigurationError:
            return i
        if compute_record_hash(prev_hash, body) != record.hash:
            return i
        if record.to_line() != bytes(line):
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


@pytest.fixture
def small_ledger(tmp_path):
    """A real trial ledger (every event type the runtime writes, late data,
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
    path = tmp_path / "small.ndjson"
    run_trial(env, config, 7, out_path=path).ledger.close()
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


def test_payload_with_its_own_hash_key_verifies(small_ledger):
    fake = "ab" * 32
    _rewrite_last(small_ledger, _set_payload("hash", fake))
    assert small_ledger.read_bytes().splitlines()[-1].count(b'"hash":"') == 2
    assert reference_verify_chain(small_ledger) is None
    assert verify_chain(small_ledger) is None
    with Ledger.open(small_ledger) as ledger:
        assert ledger.records()[-1].payload["hash"] == fake


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
def test_append_refuses_non_integer_device_ts(device_ts):
    ledger = Ledger(stream_id="s", environment_profile="test")
    with pytest.raises(ConfigurationError, match="device_ts"):
        ledger.append("ALERT", {}, backend_ts=0, version_id="v1", device_ts=device_ts)
    assert len(ledger) == 0
    ledger.append("ALERT", {}, backend_ts=0, version_id="v1", device_ts=5)
    ledger.append("ALERT", {}, backend_ts=0, version_id="v1", device_ts=None)
    assert verify_chain(ledger) is None


def test_in_memory_and_file_verdicts_match(small_ledger):
    with Ledger.open(small_ledger) as ledger:
        in_memory = Ledger(ledger.stream_id, ledger.environment_profile, _records=ledger.records())
    assert verify_chain(in_memory) is None
    assert [r.to_line() for r in in_memory.records()] == small_ledger.read_bytes().splitlines()
