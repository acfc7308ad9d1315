import dataclasses
import math
import struct

import pytest

from conftest import make_run_config, make_run_header
from ledgerloop import events
from ledgerloop.errors import DecodeError
from ledgerloop.ledger import FORMAT_VERSION, canonical_json_bytes, config_digest, encode_float, map_floats
from ledgerloop.policy import DecisionRecord, FeatureSnapshot


def make_snapshot():
    return FeatureSnapshot(
        baseline=(1.0, 0.5, -0.25),
        treatment=(1.0, 0.5, 0.75),
        provenance=("default", "observed", "imputed", "default", "observed", "default"),
        imputation_methods=(None, None, "locf", None, None, None),
        source_device_ts=(None, 100, 50, None, 100, None),
        assembled_ts=200,
    )


def make_header(**overrides):
    config = make_run_header(make_run_config(), ["p000", "p001"])
    fields = dict(stream_id="s1", environment_profile="test", deployment_seed=123,
                  config=config, config_digest=config_digest(config))
    return events.HeaderInfo(**{**fields, **overrides})


# One value of every event type's payload class.
VALUES = {
    "HEADER": make_header(),
    "DATA_INGESTED": events.DatumInfo("p1", "engagement", float("nan"), 5, None),
    "FEATURE_SNAPSHOT": events.SnapshotInfo(
        **dataclasses.asdict(make_snapshot()), participant_id="p1", decision_index=4
    ),
    "DECISION": DecisionRecord(
        participant_id="p2", decision_index=11, pi_raw=0.8413447460685429, pi=0.8,
        seed=2**63 + 17, action=1, fallback=False, version_id="v1.0.0",
    ),
    "OUTCOME_OBSERVED": events.OutcomeInfo("p1", 3, -1.5, 999),
    "MODEL_UPDATE": events.UpdateInfo("p1", (4, 7, 9), b"\x01" * 32, b"\x02" * 32, b"state"),
    "VERSION_CHANGE": events.VersionInfo("v1.0.1", "ab" * 32, "v1.0.0"),
    "ERROR": events.ErrorInfo("update_failure", "NumericalStateError: x", "p1"),
    "ALERT": events.AlertInfo("fallback_rate", ">", 0.2, 0.25, "per-day", 3, "medium"),
}


def encode(value) -> dict:
    return map_floats(value, encode_float)


def round_trip(event_type: str):
    value = VALUES[event_type]
    payload = encode(value)
    canonical_json_bytes(payload)  # no raw floats anywhere
    return payload, events.decode_payload(event_type, payload)


@pytest.mark.parametrize("event_type", sorted(VALUES))
def test_payload_round_trip(event_type):
    payload, back = round_trip(event_type)
    assert type(back) is type(VALUES[event_type])
    assert encode(back) == payload  # bit for bit, NaN included


def test_every_event_type_has_a_payload_class():
    assert list(events.PAYLOADS) == [
        "HEADER", "DATA_INGESTED", "FEATURE_SNAPSHOT", "DECISION", "OUTCOME_OBSERVED",
        "MODEL_UPDATE", "VERSION_CHANGE", "ERROR", "ALERT",
    ]
    assert sorted(events.PAYLOADS) == sorted(VALUES)


def test_snapshot_payload_round_trip():
    # The payload stays flat: the snapshot's fields next to its point's key.
    payload, back = round_trip("FEATURE_SNAPSHOT")
    assert sorted(payload) == sorted(
        [f.name for f in dataclasses.fields(FeatureSnapshot)] + ["participant_id", "decision_index"]
    )
    assert (back.participant_id, back.decision_index) == ("p1", 4)
    assert FeatureSnapshot(**{k: getattr(back, k) for k in dataclasses.asdict(make_snapshot())}) == make_snapshot()


def test_decision_payload_round_trip():
    _, back = round_trip("DECISION")
    assert back == VALUES["DECISION"]
    assert back.seed == 2**63 + 17


def test_outcome_payload_round_trip():
    payload, back = round_trip("OUTCOME_OBSERVED")
    assert payload["reward"] == encode_float(-1.5)
    assert back == events.OutcomeInfo("p1", 3, -1.5, 999)


def test_update_payload_round_trip():
    payload, back = round_trip("MODEL_UPDATE")
    assert payload["pre_state_hash"] == "01" * 32
    assert payload["batch_seqs"] == [4, 7, 9]
    assert back.batch_seqs == (4, 7, 9)
    assert back.post_state == b"state"


def test_header_payload_round_trip():
    payload, back = round_trip("HEADER")
    assert payload["format_version"] == FORMAT_VERSION
    assert back.stream_id == "s1"
    assert back.deployment_seed == 123
    assert back.config == VALUES["HEADER"].config
    config = make_run_config()
    assert (back.config.model, back.config.schedule) == (config.model, config.schedule)
    assert back.config.participants == ("p000", "p001")
    assert back.roster == {"p000", "p001"}


def test_data_ingested_nan_value_round_trip():
    nan = struct.unpack(">d", bytes.fromhex("7ff8000000000bad"))[0]
    payload = encode(events.DatumInfo("p1", "engagement", nan, 5, None))
    info = events.parse_data_ingested(payload)
    assert math.isnan(info.value)
    assert encode_float(info.value) == "7ff8000000000bad"


def test_parse_rejects_malformed():
    with pytest.raises(DecodeError):
        events.parse_decision({"participant_id": "p"})
    with pytest.raises(DecodeError):
        events.parse_header({})


def _with(event_type: str, **members) -> dict:
    return {**encode(VALUES[event_type]), **members}


@pytest.mark.parametrize(
    "event_type, payload, message",
    [
        ("DECISION", _with("DECISION", fallback=7), "fallback: expected a boolean, got 7"),
        ("DECISION", _with("DECISION", fallback="x"), "fallback: expected a boolean, got 'x'"),
        ("DECISION", _with("DECISION", seed=True), "seed: expected an integer, got True"),
        ("DECISION", _with("DECISION", action=2), "action must be 0 or 1"),
        ("DECISION", _with("DECISION", pi="3FE999999999999A"), "pi: expected 16 lowercase hex chars"),
        ("DECISION", _with("DECISION", extra=1), "extra: not a member"),
        ("FEATURE_SNAPSHOT", _with("FEATURE_SNAPSHOT", provenance="x"), "provenance: expected a list"),
        ("FEATURE_SNAPSHOT", _with("FEATURE_SNAPSHOT", provenance=["x"] * 6), "unknown provenance tag 'x'"),
        ("FEATURE_SNAPSHOT", _with("FEATURE_SNAPSHOT", baseline=["3ff0000000000000", 1, "0" * 16]),
         "baseline[1]: expected 16 lowercase hex chars, got 1"),
        ("MODEL_UPDATE", _with("MODEL_UPDATE", post_state="AB"), "post_state: expected lowercase hex, got 'AB'"),
        ("MODEL_UPDATE", _with("MODEL_UPDATE", post_state="ab cd"), "post_state: expected lowercase hex"),
        ("MODEL_UPDATE", _with("MODEL_UPDATE", batch_seqs=[4, False]), "batch_seqs[1]: expected an integer"),
        ("VERSION_CHANGE", _with("VERSION_CHANGE", previous_version_id=7), "previous_version_id: expected a string"),
        ("HEADER", _with("HEADER", stream_id=7), "stream_id: expected a string, got 7"),
        ("HEADER", _with("HEADER", format_version="7"), "format_version: expected an integer, got '7'"),
        ("HEADER", _with("HEADER", format_version=2), "format_version 2 is not 1"),
    ],
)
def test_decode_refuses_what_append_cannot_write(event_type, payload, message):
    with pytest.raises(DecodeError) as caught:
        events.decode_payload(event_type, payload)
    assert str(caught.value).startswith(f"malformed {event_type} payload: {message}")


# Several problems at once: the walk names one, the same one every time.
@pytest.mark.parametrize(
    "event_type, payload, message",
    [
        # Both ill-typed: pi comes first in field order.
        ("DECISION", _with("DECISION", pi=7, action="x"),
         "malformed DECISION payload: pi: expected 16 lowercase hex chars, got 7"),
        # One member unknown and one missing: the unknown one, though the
        # missing one sorts first.
        ("DECISION", {**{k: v for k, v in _with("DECISION").items() if k != "action"}, "zzz": 1},
         "malformed DECISION payload: zzz: not a member"),
        # Two bad items: the first index.
        ("MODEL_UPDATE", _with("MODEL_UPDATE", batch_seqs=[4, False, "x"]),
         "malformed MODEL_UPDATE payload: batch_seqs[1]: expected an integer, got False"),
    ],
)
def test_the_walk_names_the_first_problem(event_type, payload, message):
    with pytest.raises(DecodeError) as caught:
        events.decode_payload(event_type, payload)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "model, message",
    [
        ({"baseline_dim": "x"}, "model.baseline_dim: expected an integer, got 'x'"),
        ({"prior_mean": 7}, "model.prior_mean: expected a list, got 7"),
        ({"clip_min": encode_float(0.7)}, "model: clip_min must be in (0, 0.5]"),
    ],
)
def test_header_config_is_decoded_strictly(model, message):
    payload = encode(make_header())
    payload["config"]["model"] = {**payload["config"]["model"], **model}
    with pytest.raises(DecodeError) as caught:
        events.decode_payload("HEADER", payload)
    assert str(caught.value) == f"malformed HEADER config: {message}"


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"environment": {"miss_prob": encode_float(2.0)}}, "environment: miss_prob must be in [0, 1]"),
        ({"environment": {"outcome_noise_sd": encode_float(-1.0)}},
         "environment: outcome_noise_sd must be non-negative"),
        ({"environment": {"n_days": 1.5}}, "environment.n_days: expected an integer, got 1.5"),
        ({"unchecked": 1}, "unchecked: not a member"),
        ({"participants": ["p000", "p001", "p001"]}, "participants: 'p001' is named twice"),
        ({"participants": "p000"}, "participants: expected a list, got 'p000'"),
        ({"environment": {"n_days": 99}}, "environment.n_days 99 is not schedule.trial_days 3"),
        ({"environment": {"n_participants": 7}}, "environment.n_participants 7 is not the 2 participants named"),
    ],
)
def test_every_header_config_section_is_decoded_strictly(edit, message):
    # The environment and the participants too, and no member beside the
    # sections: each refusal inside the config names its path there.
    payload = encode(make_header())
    config = payload["config"]
    for name, value in edit.items():
        config[name] = {**config[name], **value} if isinstance(value, dict) else value
    with pytest.raises(DecodeError) as caught:
        events.decode_payload("HEADER", payload)
    assert str(caught.value) == f"malformed HEADER config: {message}"


@pytest.mark.parametrize(
    "config, message",
    [(7, "malformed HEADER config: expected an object, got 7"), (None, "malformed HEADER config: missing")],
)
def test_a_header_config_that_is_no_object_is_refused(config, message):
    payload = encode(make_header())
    if config is None:
        del payload["config"]
    else:
        payload["config"] = config
    with pytest.raises(DecodeError) as caught:
        events.decode_payload("HEADER", payload)
    assert str(caught.value) == message
