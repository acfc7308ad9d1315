import dataclasses
import json

import pytest

from ledgerloop.config import RunConfig, config_digest, config_from_dict, header_config_dict
from ledgerloop.events import StreamIndex
from ledgerloop.ledger import GENESIS_HASH, Ledger, compute_record_hash, read_records
from ledgerloop.replay import default_logic
from ledgerloop.runtime import Runtime
from ledgerloop.rng import derive_seed


BASE_CONFIG = {
    "master_seed": 42,
    "environment_profile": "test",
    "model": {
        "baseline_dim": 3,
        "treatment_dim": 3,
        "noise_variance": 1.0,
        "prior_mean": [0.0] * 6,
        "prior_precision_scale": 1.0,
        "clip_min": 0.1,
        "clip_max": 0.9,
        "version_id": "v1.0.0",
    },
    "schedule": {
        "decision_times": ["09:00", "18:00"],
        "update_time": "23:00",
        "trial_days": 3,
    },
    "imputation": {"horizon": 3},
    "environment": {
        "effect_mean": [0.5, 0.0, 0.0],
        "baseline_mean": [0.2, 0.0, 0.0],
        "effect_sd": 0.0,
        "baseline_sd": 0.0,
        "outcome_noise_sd": 0.5,
        "engagement_persistence": 0.5,
        "action_engagement_boost": 0.2,
        "engagement_noise_sd": 0.05,
        "miss_prob": 0.0,
        "delay_geometric_p": 1.0,
        "n_participants": 2,
        "n_days": 3,
    },
}


def deep_merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def rechain(path, seq: int, edit) -> None:
    """Apply ``edit`` to the JSON object of record ``seq`` of a ledger file,
    then re-derive every hash from there on with plain ``json``, so the file's
    chain verifies and only the edited content can be refused."""
    lines = path.read_bytes().splitlines()
    prev = GENESIS_HASH if seq == 0 else bytes.fromhex(json.loads(lines[seq - 1])["hash"])
    for i in range(seq, len(lines)):
        record = json.loads(lines[i])
        if i == seq:
            edit(record)
        del record["hash"]
        record["prev_hash"] = prev.hex()
        body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("ascii")
        prev = compute_record_hash(prev, body)
        record["hash"] = prev.hex()
        lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("ascii")
    path.write_bytes(b"\n".join(lines) + b"\n")


def first_seq(path, event_type: str, where=lambda payload: True) -> int:
    """The seq of the first record of ``event_type`` whose payload passes ``where``."""
    for seq, line in enumerate(path.read_bytes().splitlines()):
        record = json.loads(line)
        if record["event_type"] == event_type and where(record["payload"]):
            return seq
    raise AssertionError(f"no {event_type} record")


def records_of(path, event_type: str) -> list:
    """The records of one event type in the ledger file at ``path``, in seq order."""
    return [record for record in read_records(path) if record.event_type == event_type]


def index_of(path) -> StreamIndex:
    """The index folded from the ledger file at ``path``, as the audit verbs fold it."""
    return StreamIndex.fold(read_records(path))


def make_run_config(**overrides) -> RunConfig:
    return config_from_dict(deep_merge(BASE_CONFIG, overrides))


@pytest.fixture
def run_config() -> RunConfig:
    return make_run_config()


def make_runtime(config: RunConfig, participants=("p0", "p1"), path=None) -> Runtime:
    ledger = Ledger(
        stream_id="test-stream",
        environment_profile=config.environment_profile,
        path=path,
    )
    runtime = Runtime(
        ledger=ledger,
        model_config=config.model,
        schedule=config.schedule,
        features=config.features,
        imputation=config.imputation,
        injection=config.injection,
        deployment_seed=derive_seed(config.master_seed, "deployment"),
        participants=list(participants),
        logic=default_logic(),
    )
    return runtime


def start_runtime(runtime: Runtime) -> None:
    """Write the runtime's HEADER, its config the one a run with the
    runtime's parameters would record."""
    config = dataclasses.replace(
        make_run_config(),
        model=runtime.model_config,
        schedule=runtime.schedule,
        features=runtime.features,
        imputation=runtime.imputation,
        injection=runtime.injection,
    )
    header = header_config_dict(config, runtime.participants)
    runtime.start(header_config=header, config_digest=config_digest(header), backend_ts=0)
