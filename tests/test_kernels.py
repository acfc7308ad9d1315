"""conjugate-linear-v2 against conjugate-linear-v1 on the same inputs.

The two logics compute the same model in different orders of operations, so
their results agree to a tight relative tolerance but not bit for bit; v2
must also give the same bits every time it is called.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy.linalg")
from scipy.linalg import cho_factor, cho_solve  # noqa: E402

from ledgerloop import policy, policy_v1  # noqa: E402
from ledgerloop.policy import FeatureSnapshot, ModelConfig, PosteriorState  # noqa: E402

D_G = D_H = 3
D = D_G + D_H
RTOL, ATOL = 1e-9, 1e-12

CONFIG = ModelConfig(D_G, D_H, 0.8, (0.0,) * D, 1.0, clip_min=0.05, clip_max=0.95)

values = st.floats(-3.0, 3.0, allow_nan=False)
rows = st.tuples(
    st.tuples(values, values, values), st.tuples(values, values, values),
    st.integers(0, 1), st.floats(-5.0, 5.0, allow_nan=False),
)


def snapshot(baseline, treatment):
    return FeatureSnapshot(baseline, treatment, ("observed",) * D, (None,) * D, (0,) * D, 0)


def spd_state(entries, mean):
    a = np.reshape(entries, (D, D))
    precision = a @ a.T + D * np.eye(D)
    precision = (precision + precision.T) / 2.0
    return PosteriorState(mean, precision.ravel())


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(values, min_size=D * D, max_size=D * D),
    mean=st.lists(values, min_size=D, max_size=D),
    rhs=st.lists(values, min_size=D, max_size=D),
    batch=st.lists(rows, min_size=1, max_size=8),
    h=st.tuples(values, values, values),
)
def test_v2_agrees_with_v1(entries, mean, rhs, batch, h):
    state = spd_state(entries, mean)
    precision = np.reshape(state.precision, (D, D))
    reference = cho_factor(precision, lower=True)

    factor = state.factor
    lower = np.tril(reference[0])
    assert np.allclose([row + (0.0,) * (D - len(row)) for row in factor], lower, rtol=RTOL, atol=ATOL)

    solved = policy._backward(factor, policy._forward(factor, rhs))
    assert np.allclose(solved, cho_solve(reference, np.array(rhs)), rtol=RTOL, atol=ATOL)

    snap = snapshot((1.0, 0.0, 0.0), h)
    pi_raw_v2, _ = policy.action_probability(state, snap, CONFIG)
    pi_raw_v1, _ = policy_v1.action_probability(state, snap, CONFIG)
    assert pi_raw_v2 == pytest.approx(pi_raw_v1, rel=RTOL, abs=ATOL)

    batch = [(snapshot(g, t), action, reward) for g, t, action, reward in batch]
    out_v2 = policy.update_posterior(state, batch, CONFIG)
    out_v1 = policy_v1.update_posterior(state, batch, CONFIG)
    assert out_v2.precision == out_v1.precision  # elementwise sums in one order in both
    assert np.allclose(out_v2.mean, out_v1.mean, rtol=RTOL, atol=ATOL)


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(values, min_size=D * D, max_size=D * D),
    mean=st.lists(values, min_size=D, max_size=D),
    batch=st.lists(rows, min_size=1, max_size=8),
    h=st.tuples(values, values, values),
)
def test_v2_gives_the_same_bits_every_call(entries, mean, batch, h):
    state = spd_state(entries, mean)
    batch = [(snapshot(g, t), action, reward) for g, t, action, reward in batch]
    snap = snapshot((1.0, 0.0, 0.0), h)
    outputs = set()
    for _ in range(3):
        fresh = PosteriorState(state.mean, state.precision)  # no cached factor yet
        updated = policy.update_posterior(fresh, batch, CONFIG)
        decided = [policy.action_probability(s, snap, CONFIG) for s in (fresh, updated, updated)]
        outputs.add(
            policy.canonical_serialize(updated)
            + b"".join(struct.pack(">dd", *pis) for pis in decided)
        )
    assert len(outputs) == 1
