"""The record classes whose ``__init__`` ``ledger.frozen_record`` generates
behave as the plain ``@dataclass(frozen=True)`` they replace: the same
signature and defaults, ``==``, ``hash`` and ``repr``, FrozenInstanceError on
assignment, ``dataclasses.replace``, pickling and copying, and every
``__post_init__`` refusal with its message. They keep their fields in slots,
with no instance dict."""

import copy
import dataclasses
import inspect
import pickle
import re
import tracemalloc
from dataclasses import MISSING, FrozenInstanceError

import pytest

from ledgerloop import events
from ledgerloop.errors import ConfigurationError
from ledgerloop.ledger import frozen_record
from ledgerloop.policy import DecisionRecord, FeatureSnapshot
from ledgerloop.twin import ParticipantTwin

SNAPSHOT = dict(
    baseline=(1.0, 0.5, 0.0),
    treatment=(1.0, 0.5, 0.25),
    provenance=("default", "observed", "imputed", "default", "observed", "observed"),
    imputation_methods=(None, None, "locf", None, None, None),
    source_device_ts=(None, 5, 3, None, 5, 5),
    assembled_ts=9,
)

# Each class with the arguments of one valid value, and one member to change.
EXAMPLES = {
    events.DatumInfo: (dict(participant_id="p0", feature="engagement", value=0.25, device_ts=3,
                            superseded_snapshot_seq=None), "value", 0.5),
    events.SnapshotInfo: (dict(SNAPSHOT, participant_id="p0", decision_index=2), "decision_index", 3),
    events.OutcomeInfo: (dict(participant_id="p0", decision_index=2, reward=-0.5, device_ts=7),
                         "reward", 0.5),
    events.UpdateInfo: (dict(participant_id="p0", batch_seqs=(4, 9), pre_state_hash=b"\x01" * 32,
                             post_state_hash=b"\x02" * 32, post_state=b"\x03\x04"), "batch_seqs", (4,)),
    events.VersionInfo: (dict(version_id="v1", fingerprint="ab", previous_version_id=None),
                         "previous_version_id", "v0"),
    events.ErrorInfo: (dict(kind="update_failure", message="boom"), "decision_index", 4),
    events.AlertInfo: (dict(metric="decision_coverage", comparator=">=", threshold=0.5, value=0.25,
                            window="overall", day=None, severity="warn"), "day", 2),
    DecisionRecord: (dict(participant_id="p0", decision_index=2, pi_raw=0.95, pi=0.9, seed=11,
                          action=1, fallback=False), "fallback_reason", "x"),
    FeatureSnapshot: (SNAPSHOT, "assembled_ts", 10),
    ParticipantTwin: (dict(participant_id="p0", b=(0.2, 0.0, 0.0), theta=(0.6, 0.0, 0.0)), "t", 5),
}

# Arguments each class's __post_init__ refuses, over a valid value's, with its message.
REFUSED = {
    FeatureSnapshot: [
        (dict(provenance=("observed",) * 5), "provenance must tag every feature entry"),
        (dict(imputation_methods=(None,) * 5), "per-entry metadata must match entry count"),
        (dict(source_device_ts=(None,) * 7), "per-entry metadata must match entry count"),
        (dict(provenance=("observed", "guessed") + ("observed",) * 4), "unknown provenance tag 'guessed'"),
        (dict(imputation_methods=(None,) * 6), "imputed entries must name their method"),
    ],
    DecisionRecord: [
        (dict(decision_index=-1), "decision_index must be in [0, 2**64)"),
        (dict(decision_index=2**64), "decision_index must be in [0, 2**64)"),
        (dict(pi_raw=1.5), "probabilities must lie in [0, 1]"),
        (dict(pi=-0.1), "probabilities must lie in [0, 1]"),
        (dict(action=2), "action must be 0 or 1"),
        (dict(fallback=True), "fallback decisions must carry a reason"),
    ],
}
REFUSED[events.SnapshotInfo] = REFUSED[FeatureSnapshot]


def plain_copy(cls):
    """``cls`` as a plain frozen dataclass: its fields, defaults, qualname and
    ``__post_init__``, with the dataclass-generated ``__init__``."""
    namespace = {
        "__annotations__": {f.name: f.type for f in dataclasses.fields(cls)},
        "__qualname__": cls.__qualname__,
        "__module__": cls.__module__,
    }
    namespace.update({f.name: f.default for f in dataclasses.fields(cls) if f.default is not MISSING})
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def field_values(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


@pytest.fixture(params=list(EXAMPLES), ids=lambda cls: cls.__name__)
def classes(request):
    return request.param, plain_copy(request.param)


def test_the_signature_and_defaults_are_the_dataclass_ones(classes):
    cls, plain = classes
    ours, theirs = inspect.signature(cls).parameters, inspect.signature(plain).parameters
    assert [(p.name, p.kind, p.default) for p in ours.values()] == [
        (p.name, p.kind, p.default) for p in theirs.values()
    ]
    kwargs = EXAMPLES[cls][0]
    required = {k: v for k, v in kwargs.items() if theirs[k].default is inspect.Parameter.empty}
    value = cls(**required)
    assert [getattr(value, f.name) for f in dataclasses.fields(cls)] == [
        getattr(plain(**required), f.name) for f in dataclasses.fields(cls)
    ]


def test_eq_hash_and_repr_are_the_dataclass_ones(classes):
    cls, plain = classes
    kwargs, member, other = EXAMPLES[cls]
    a, b = cls(**kwargs), cls(*kwargs.values())  # keywords and positions
    changed = cls(**{**kwargs, member: other})
    assert a == b and hash(a) == hash(b)
    assert a != changed and (a == changed) == (plain(**kwargs) == plain(**{**kwargs, member: other}))
    assert repr(a) == repr(plain(**kwargs))
    assert hash(a) == hash(plain(**kwargs))
    assert hash(changed) == hash(plain(**{**kwargs, member: other}))
    assert field_values(a) == field_values(plain(**kwargs))


def test_assignment_and_deletion_raise_frozen_instance_error(classes):
    cls, _ = classes
    kwargs, member, other = EXAMPLES[cls]
    value = cls(**kwargs)
    with pytest.raises(FrozenInstanceError):
        setattr(value, member, other)
    with pytest.raises(FrozenInstanceError):
        delattr(value, member)
    with pytest.raises(FrozenInstanceError):
        value.not_a_field = 1
    assert value == cls(**kwargs) and field_values(value) == field_values(cls(**kwargs))
    assert not hasattr(value, "not_a_field") and not hasattr(value, "__dict__")


def test_replace_and_pickle_round_trip(classes):
    cls, _ = classes
    kwargs, member, other = EXAMPLES[cls]
    value = cls(**kwargs)
    assert dataclasses.replace(value, **{member: other}) == cls(**{**kwargs, member: other})
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is cls and back == value and field_values(back) == field_values(value)
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and field_values(twin) == field_values(value)


@pytest.mark.parametrize("cls", list(REFUSED), ids=lambda cls: cls.__name__)
def test_every_post_init_refusal_keeps_its_message(cls):
    plain = plain_copy(cls)
    kwargs = EXAMPLES[cls][0]
    for bad, message in REFUSED[cls]:
        for build in (plain, cls, lambda **changes: dataclasses.replace(cls(**kwargs), **changes)):
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                build(**{**kwargs, **bad})


def test_the_snapshot_still_converts_its_vectors_to_floats():
    kwargs = dict(SNAPSHOT, baseline=[1, 0, 0], treatment=(1, 2, 3))
    snapshot = FeatureSnapshot(**kwargs)
    assert snapshot.baseline == (1.0, 0.0, 0.0) and snapshot.treatment == (1.0, 2.0, 3.0)
    assert all(type(x) is float for x in snapshot.baseline + snapshot.treatment)


def test_fields_without_a_generated_init_are_refused():
    class WithFactory:
        items: list = dataclasses.field(default_factory=list)

    class NotInit:
        name: str = dataclasses.field(init=False, default="x")

    for cls in (WithFactory, NotInit):
        with pytest.raises(TypeError, match="no generated __init__"):
            frozen_record(cls)


def test_a_datum_takes_at_most_160_bytes():
    # Values included: the ints and floats each record holds are its own.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = [events.DatumInfo("p0", "engagement", i + 0.5, i, None) for i in range(10_000)]
        size = (tracemalloc.get_traced_memory()[0] - before) / len(data)
    finally:
        tracemalloc.stop()
    assert size <= 160, f"{size:.0f} B per DatumInfo"
