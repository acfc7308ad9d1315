import json

import pytest
import yaml

from ledgerloop.config import RunConfig, config_from_dict, header_config_dict
from ledgerloop.events import HeaderInfo, StreamIndex
from ledgerloop.ledger import GENESIS_HASH, Ledger, compute_record_hash, config_digest, read_records
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


_yaml_load = yaml.load
# The loader ledgerloop.config.read_yaml reads with.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_CHECKED: list[str] = []  # every text the libyaml check below has read


def yaml_outcome(text: str, loader):
    """What ``loader`` makes of ``text``: the repr of its value (so 1, 1.0
    and True differ), or the class of its error."""
    try:
        return repr(_yaml_load(text, Loader=loader))
    except yaml.YAMLError as exc:
        return type(exc)


@pytest.fixture(scope="session", autouse=True)
def both_yaml_loaders():
    """Every config and rules text ledgerloop reads during the tests with
    libyaml's loader is read with the pure-Python one too, and must give
    the same value or the same error class."""

    def load(stream, Loader):
        if Loader is not YAML_LOADER or Loader is yaml.SafeLoader:
            return _yaml_load(stream, Loader=Loader)
        assert yaml_outcome(stream, Loader) == yaml_outcome(stream, yaml.SafeLoader), stream
        YAML_CHECKED.append(stream)
        return _yaml_load(stream, Loader=Loader)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yaml, "load", load)
        yield


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


def relabel(path, participant_id: str, decision_index: int, other: str) -> int:
    """Re-label the snapshot, decision and outcome of ``participant_id``'s
    point ``decision_index`` as ``other``'s, each with :func:`rechain`, and
    return the snapshot's seq."""
    seqs = [
        first_seq(path, event_type, lambda payload: (payload["participant_id"], payload["decision_index"])
                  == (participant_id, decision_index))
        for event_type in ("FEATURE_SNAPSHOT", "DECISION", "OUTCOME_OBSERVED")
    ]
    for seq in seqs:
        rechain(path, seq, lambda record: record["payload"].update(participant_id=other))
    return seqs[0]


def records_of(path, event_type: str) -> list:
    """The records of one event type in the ledger file at ``path``, in seq
    order, each with its payload as the dict it is stored as (the dict an
    edit of :func:`rechain` changes)."""
    lines = path.read_bytes().splitlines()
    return [
        record._replace(payload=json.loads(lines[record.seq])["payload"])
        for record in read_records(path)
        if record.event_type == event_type
    ]


def index_of(path) -> StreamIndex:
    """The index folded from the ledger file at ``path``, as the audit verbs fold it."""
    return StreamIndex.fold(read_records(path))


def make_run_config(**overrides) -> RunConfig:
    return config_from_dict(deep_merge(BASE_CONFIG, overrides))


def make_header(stream_id="s", environment_profile="test", **extra) -> HeaderInfo:
    """A HEADER payload of the base run config, with the members ``extra``
    added to its config (its ``config_digest`` is the base config's)."""
    config = header_config_dict(make_run_config(), ["p0", "p1"])
    return HeaderInfo(stream_id, environment_profile, 0, {**config, **extra}, config_digest(config))


@pytest.fixture
def run_config() -> RunConfig:
    return make_run_config()


def make_runtime(config: RunConfig, participants=("p0", "p1"), path=None) -> Runtime:
    """A runtime of stream ``test-stream``, not yet started, whose HEADER is
    the one a run of ``config`` with ``participants`` records."""
    ledger = Ledger(stream_id="test-stream", environment_profile=config.environment_profile, path=path)
    header_config = header_config_dict(config, list(participants))
    header = HeaderInfo(
        ledger.stream_id, ledger.environment_profile, derive_seed(config.master_seed, "deployment"),
        header_config, config_digest(header_config),
    )
    return Runtime(ledger, header, default_logic())
