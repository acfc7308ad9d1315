"""conjugate-linear-v1 against ``policy_v1_reference``, the v1 logic written
out whole with its own checks, update rows, limit, clip and prior.

``ledgerloop.policy_v1`` keeps only v1's numerics and takes every other step
from ``ledgerloop.policy``. On every input it must still give the reference's
``(pi_raw, pi)`` bits, updated-state bytes, and exception type and message:
NaN, infinite and negative-zero features, empty batches, refused actions and
rewards, snapshots and states of other dimensions, and precisions that are
not positive definite. The shared prior must be the reference's, bit for bit.
"""

import math
import struct

import pytest

pytest.importorskip("numpy")
pytest.importorskip("scipy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import policy_v1_reference as reference  # noqa: E402
from ledgerloop import policy, policy_v1  # noqa: E402
from ledgerloop.policy import FeatureSnapshot, ModelConfig, PosteriorState  # noqa: E402

# NaN and infinite inputs make numpy warn; the outcome is what is compared.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0)
finite = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def configs(draw, clean: bool = True):
    d_g, d_h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # A model's prior mean is finite (ModelConfig refuses NaN and infinity);
    # a drawn state's mean may hold any special value.
    means = finite if clean else st.one_of(finite, st.sampled_from((-0.0, 0.0)))
    return ModelConfig(
        baseline_dim=d_g,
        treatment_dim=d_h,
        noise_variance=draw(st.floats(0.05, 5.0)),
        prior_mean=tuple(draw(st.lists(means, min_size=d_g + d_h, max_size=d_g + d_h))),
        prior_precision_scale=draw(st.floats(0.1, 5.0)),
        clip_min=draw(st.floats(0.01, 0.5)),
        clip_max=draw(st.floats(0.5, 0.99)),
    )


def symmetric(lower: list[float], d: int, ridge: float) -> list[float]:
    """The row-major d x d matrix ``L L' + ridge * I`` for the lower-triangular
    ``L`` read row by row from ``lower``, mirrored so that it is bit-exactly
    symmetric; a negative ridge can leave it not positive definite."""
    rows = [lower[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] for i in range(d)]
    out = [0.0] * (d * d)
    for i in range(d):
        for j in range(i + 1):
            s = math.fsum(rows[i][k] * rows[j][k] for k in range(j + 1)) + (ridge if i == j else 0.0)
            out[i * d + j] = out[j * d + i] = s
    return out


@st.composite
def states(draw, config: ModelConfig, values):
    kind = draw(st.sampled_from(("prior",) * 4 + ("drawn",) * 5 + ("wrong-dim",)))
    if kind == "prior":
        return policy.init_state(config)
    d = config.dim + (kind == "wrong-dim")
    lower = draw(st.lists(finite, min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2))
    ridge = draw(st.sampled_from((0.5, 1e-9, 0.0, -0.25, -4.0)))
    mean = draw(st.lists(values, min_size=d, max_size=d))
    count = draw(st.integers(0, 50))
    last = draw(st.none() | st.integers(0, 2**40))
    return PosteriorState(mean, symmetric(lower, d, ridge), update_count=count, last_update_seq=last)


@st.composite
def snapshots(draw, config: ModelConfig, values):
    d_g, d_h = config.baseline_dim, config.treatment_dim
    if draw(st.sampled_from((False,) * 9 + (True,))):  # now and then of other dimensions
        d_g, d_h = draw(st.sampled_from(((d_g + 1, d_h), (d_g, d_h + 1), (d_g, max(d_h - 1, 0)))))
    g = draw(st.lists(values, min_size=d_g, max_size=d_g))
    h = draw(st.lists(values, min_size=d_h, max_size=d_h))
    n = d_g + d_h
    return FeatureSnapshot(tuple(g), tuple(h), ("observed",) * n, (None,) * n, (None,) * n, 0)


@st.composite
def cases(draw):
    clean = draw(st.booleans())  # half the cases hold no NaN, infinity or -0.0
    values = finite if clean else st.one_of(finite, st.sampled_from(SPECIAL))
    config = draw(configs(clean))
    state = draw(states(config, values))
    snapshot = draw(snapshots(config, values))
    actions = st.sampled_from((0, 1)) if clean else st.sampled_from((0, 1, 1, 0, 2, -1, 0.5))
    rewards = finite if clean else st.one_of(finite, st.sampled_from(SPECIAL))
    size = draw(st.integers(0, 4))
    batch = draw(st.lists(st.tuples(snapshots(config, values), actions, rewards), min_size=size, max_size=size))
    last = draw(st.none() | st.integers(0, 2**40))
    return config, state, snapshot, batch, last


def outcome(call, *args):
    """What ``call`` gives: ``(pi_raw, pi)`` bits or a state's bytes, or the
    type and message of what it raised."""
    try:
        result = call(*args)
    except Exception as exc:  # every refusal must match the reference's
        return "raised", type(exc), str(exc)
    if isinstance(result, PosteriorState):
        return "state", policy.canonical_serialize(result), result.state_hash, result is args[0]
    return "probabilities", struct.pack(">dd", *result)


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_v1_gives_the_references_bits_and_errors(case):
    config, state, snapshot, batch, last = case
    assert outcome(policy_v1.action_probability, state, snapshot, config) == outcome(
        reference.action_probability, state, snapshot, config
    )
    assert outcome(policy_v1.update_posterior, state, batch, config, last) == outcome(
        reference.update_posterior, state, batch, config, last
    )


@settings(max_examples=100, deadline=None)
@given(config=st.booleans().flatmap(configs))
def test_the_shared_prior_is_v1s(config):
    shared, v1 = policy.init_state(config), reference.init_state(config)
    assert shared.state_hash == v1.state_hash
    assert policy.canonical_serialize(shared) == policy.canonical_serialize(v1)
