"""The single-step append against the two-envelope append it replaced, the
compiled record writers against ``map_floats``, and the read pass on hashes
written in a form ``bytes.fromhex`` accepts but the canonical encoding does
not.

``reference_append`` keeps the earlier append as the oracle: an envelope
with an empty hash, ``canonical_json_bytes`` of its ``body_dict()`` (which
walks the whole body for raw floats), the hash, then a second envelope.
Every payload is a typed value, written by its class's compiled writer,
which gives the record its event type: for every well-typed value of every
payload class, under any envelope strings, it must give the line and hash of
the oracle fed ``map_floats(value, encode_float)``, and it refuses a member
whose type is not its annotation's before anything is written. A record
whose payload is another event type's is refused by every reader.
"""

import dataclasses
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

from conftest import make_header, make_run_config, rechain
from ledgerloop.config import EnvironmentSpec, ImputationPolicy
from ledgerloop.errors import ConfigurationError, DecodeError
from ledgerloop.events import (
    PAYLOADS,
    AlertInfo,
    DatumInfo,
    ErrorInfo,
    HeaderInfo,
    OutcomeInfo,
    RunHeader,
    SnapshotInfo,
    UpdateInfo,
    VersionInfo,
    decode_payload,
)
from ledgerloop.ledger import (
    ENVIRONMENT_PROFILES,
    GENESIS_HASH,
    EventEnvelope,
    Ledger,
    canonical_json_bytes,
    compute_record_hash,
    config_digest,
    encode_float,
    map_floats,
    read_records,
    verify_chain,
)
from ledgerloop.policy import PROVENANCE_TAGS, DecisionRecord, FeatureSnapshot, ModelConfig


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
texts = st.text(max_size=5) | st.sampled_from(["", "é", "日本", "\u2028", '"%s\\', ",", "a,b", '","'])
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
positive = st.floats(min_value=0.0, exclude_min=True)
non_negative = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def run_headers(draw):
    """HEADER configs of the base run config's schedule, features and
    injection, with every float of the model, the imputation and the
    environment drawn (finite where the class requires it), and
    participants named once each, as many as the environment has."""
    finite = st.floats(allow_nan=False, allow_infinity=False)

    def floats(n):
        return tuple(draw(st.lists(finite, min_size=n, max_size=n)))

    model = ModelConfig(
        3, 3, draw(positive), floats(6), draw(positive), draw(st.floats(0.0, 0.5, exclude_min=True)),
        draw(st.floats(0.5, 1.0, exclude_max=True)), draw(texts),
    )
    imputation = ImputationPolicy(
        draw(st.integers(0, 2**64)), {name: draw(finite) for name in RUN_CONFIG.features.names}
    )
    participants = tuple(draw(st.lists(texts, min_size=1, max_size=3, unique=True)))
    environment = EnvironmentSpec(
        effect_mean=floats(3), effect_sd=draw(non_negative), baseline_mean=floats(3),
        baseline_sd=draw(non_negative), drift=draw(finite), outcome_noise_sd=draw(non_negative),
        engagement_persistence=draw(st.floats(0.0, 1.0, exclude_max=True)),
        action_engagement_boost=draw(finite), engagement_noise_sd=draw(non_negative),
        miss_prob=draw(st.floats(0.0, 1.0)), delay_geometric_p=draw(st.floats(0.0, 1.0, exclude_min=True)),
        n_participants=len(participants), n_days=RUN_CONFIG.schedule.trial_days, label=draw(texts),
    )
    return RunHeader(model, RUN_CONFIG.schedule, RUN_CONFIG.features, imputation, RUN_CONFIG.injection,
                     participants, environment)


def _header(stream_id, profile, seed, config, digest):
    return HeaderInfo(stream_id, profile, seed, config, digest or config_digest(config))


# Well-typed values of every payload class, as the ledger's writers make them.
TYPED = {
    "HEADER": st.builds(_header, texts, texts, ints, run_headers(), st.none() | texts),
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


# Records of every event type but the HEADER, which only seq 0 may hold.
appends = st.lists(
    st.tuples(
        st.sampled_from(sorted(set(TYPED) - {"HEADER"})).flatmap(lambda t: st.tuples(st.just(t), TYPED[t])),
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
            for (event_type, value), backend_ts, version_id, device_ts in calls:
                expected = reference_append(
                    prev_hash, len(lines), event_type, map_floats(value, encode_float),
                    backend_ts, version_id, device_ts,
                )
                record = ledger.append(value, backend_ts, version_id, device_ts)
                assert record._replace(payload=None) == expected._replace(payload=None)
                assert record.payload is value
                assert record.to_line() == expected.to_line()
                prev_hash = expected.hash
                lines.append(expected.to_line())
        assert path.read_bytes() == b"".join(line + b"\n" for line in lines)
        assert [r.to_line() for r in read_records(path)] == lines


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
                    record = ledger.append(value, backend_ts=backend_ts, version_id=version_id,
                                           device_ts=device_ts)
                    assert record.hash == expected.hash
                    assert ledger.last().to_line() == expected.to_line()
                prev_hash = expected.hash
                lines.append(expected.to_line())
        assert path.read_bytes() == b"".join(line + b"\n" for line in lines)
        # The read pass gives the same records, each with its typed value,
        # whether its line matcher or the JSON path read the line.
        read = list(read_records(path))
        assert [r.to_line() for r in read] == lines
        assert read[-1].hash == prev_hash
        assert all(type(r.payload) is PAYLOADS[event_type] for r in read)
        assert [map_floats(r.payload, encode_float) for r in read] == [map_floats(v, encode_float) for v in values]

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
        ledger.append(OutcomeInfo("p0", 0, 0.5, 5), backend_ts=0, version_id="v1")
        before = path.read_bytes()
        for value, message in probes:
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                ledger.append(value, backend_ts=1, version_id="v1")
            assert len(ledger) == 1
            assert path.read_bytes() == before
        ledger.append(OutcomeInfo("p0", 1, 0.5, 6), backend_ts=1, version_id="v1")
    assert [r.seq for r in read_records(path)] == [0, 1]


@pytest.mark.parametrize("event_type", sorted(TYPED))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_payload_of_another_event_types_class_is_refused(event_type, data):
    # Append takes the event type from the value's class, so no such record
    # is written. One made by hand is refused by every reader, with the
    # walk's message and no seq, once its chain checks have passed.
    owner = data.draw(st.sampled_from(sorted(set(TYPED) - {event_type})))
    value = data.draw(TYPED[owner])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "l.ndjson"
        with Ledger("s", "test", path=path, fsync=False) as ledger:
            ledger.append(value, backend_ts=0, version_id="v1")
        rechain(path, 0, lambda record: record.update(event_type=event_type))
        with pytest.raises(DecodeError) as walked:
            decode_payload(event_type, map_floats(value, encode_float))
        assert str(walked.value).startswith(f"malformed {event_type} payload: ")
        for read in (lambda: list(read_records(path)), lambda: Ledger.open(path)):
            with pytest.raises(DecodeError) as refused:
                read()
            assert (str(refused.value), refused.value.seq) == (str(walked.value), None)
        assert verify_chain(path) == 0


class _Datum(DatumInfo):
    pass


def test_append_refuses_a_value_of_no_payload_class():
    ledger = Ledger("s", "test")
    snapshot = FeatureSnapshot((), (), (), (), (), 0)
    datum = _Datum("p0", "f", 0.5, 1, None)
    for value in ([1], "x", None, DatumInfo, {}, {"kind": "k", "message": "m"}, snapshot, datum):
        with pytest.raises(ConfigurationError, match="payload must be an instance of a payload class"):
            ledger.append(value, backend_ts=0, version_id="v1")
    assert len(ledger) == 0


def test_append_refusal_names_the_path_inside_the_payload():
    # The HEADER's config is the one dataclass a payload holds. Its writer
    # refuses a value the read pass would not read back, such as an int
    # where a float belongs, naming the path inside the config.
    ledger = Ledger("s", "test")
    header = make_header()
    environment = dataclasses.replace(header.config.environment, effect_sd=0)
    probes = [
        (dataclasses.replace(header.config, environment=environment),
         "HEADER payload: config: environment.effect_sd: expected 16 lowercase hex chars, got 0"),
        (dataclasses.replace(header.config, participants=(1, "p1")),
         "HEADER payload: config: participants[0]: expected a string, got 1"),
        (dataclasses.replace(header.config, environment=dataclasses.replace(environment, label=object())),
         "HEADER payload: config: cannot encode <object object at"),
    ]
    for config, message in probes:
        with pytest.raises(ConfigurationError) as refused:
            ledger.append(dataclasses.replace(header, config=config), backend_ts=0, version_id="v1")
        assert str(refused.value).startswith(message)
    assert len(ledger) == 0


@pytest.fixture
def three_records(tmp_path):
    path = tmp_path / "l.ndjson"
    with Ledger("s", "test", path=path, fsync=False) as ledger:
        for i in range(3):
            ledger.append(ErrorInfo("k", str(i)), backend_ts=i, version_id="v1")
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
