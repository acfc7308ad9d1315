"""conjugate-linear-v2's generated kernels against their loop form, and
against conjugate-linear-v1 on the same inputs.

The straight-line kernels ``policy.kernels(d)`` compiles must run the
operations of the loops in ``policy_loops`` in the same order, so they give
the same bits on every input, refusals included. v1 computes the same model
in another order of operations, so its results agree with v2's to a tight
relative tolerance but not bit for bit; v2 must also give the same bits
every time it is called.
"""

import importlib.util
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policy_loops
from ledgerloop import policy
from ledgerloop.errors import NumericalStateError
from ledgerloop.policy import FeatureSnapshot, ModelConfig, PosteriorState

values = st.floats(-3.0, 3.0, allow_nan=False)


def bits(*floats) -> bytes:
    return struct.pack(f">{len(floats)}d", *floats)


def factor_bits(factor) -> bytes:
    return b"".join(bits(*row) for row in factor)


def snapshot(baseline, treatment):
    n = len(baseline) + len(treatment)
    return FeatureSnapshot(baseline, treatment, ("observed",) * n, (None,) * n, (0,) * n, 0)


def pd_precision(entries, d: int) -> tuple[float, ...]:
    """``A A' + d I`` for the row-major ``A`` in ``entries``: positive
    definite, each entry summed once and mirrored, so bit-exactly symmetric."""
    lower = {}
    for i in range(d):
        for j in range(i + 1):
            s = d if i == j else 0.0
            for k in range(d):
                s += entries[i * d + k] * entries[j * d + k]
            lower[i, j] = s
    return tuple(lower[max(i, j), min(i, j)] for i in range(d) for j in range(d))


@st.composite
def kernel_inputs(draw, dims=st.integers(1, 8)):
    """A positive-definite precision and a mean of dimension d, and a batch
    of 1-6 rows ``(*x, w)`` with ``x = [g; a * h]`` for actions 0 and 1 at a
    drawn split of the d entries into g and h."""
    d = draw(dims)
    precision = pd_precision(draw(st.lists(values, min_size=d * d, max_size=d * d)), d)
    mean = tuple(draw(st.lists(values, min_size=d, max_size=d)))
    split = draw(st.integers(0, d))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        a = float(draw(st.integers(0, 1)))
        x = draw(st.lists(values, min_size=d, max_size=d))
        w = draw(st.floats(-5.0, 5.0, allow_nan=False))
        rows.append((*x[:split], *[t * a for t in x[split:]], w))
    return d, precision, mean, rows, draw(st.floats(0.1, 4.0))


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_generated_kernels_give_the_bits_of_the_loops(inputs):
    d, precision, mean, rows, inv_noise = inputs
    kernels = policy.kernels(d)
    factor = kernels.factor(precision)
    assert factor_bits(factor) == factor_bits(policy_loops.cholesky(precision, d))
    assert [len(row) for row in factor] == list(range(1, d + 1))

    new_mean, new_precision, new_factor = kernels.update(precision, mean, rows, inv_noise)
    want_mean, want_precision, want_factor = policy_loops.update(precision, mean, rows, inv_noise)
    assert bits(*new_mean) == bits(*want_mean)
    assert bits(*new_precision) == bits(*want_precision)
    assert factor_bits(new_factor) == factor_bits(want_factor)
    assert type(new_mean) is type(new_precision) is tuple

    h = rows[0][:-1]
    assert set(kernels.action) == set(range(1, d))
    for start in range(1, d):
        got = kernels.action[start](new_factor, new_mean, h[start:])
        assert bits(*got) == bits(*policy_loops.action(new_factor, new_mean, h[start:], start))


@settings(max_examples=200, deadline=None)
@given(inputs=kernel_inputs(), pivot=st.data(), bad=st.sampled_from([-1e300, float("-inf"), float("inf"), float("nan")]))
def test_a_precision_that_is_not_positive_definite_is_refused_alike(inputs, pivot, bad):
    d, precision, mean, rows, inv_noise = inputs
    i = pivot.draw(st.integers(0, d - 1), label="pivot")
    broken = list(precision)
    broken[i * d + i] = bad
    messages = []
    for kernel, loops in (
        (lambda: policy.kernels(d).factor(broken), lambda: policy_loops.cholesky(broken, d)),
        (lambda: policy.kernels(d).update(broken, mean, rows, inv_noise),
         lambda: policy_loops.update(broken, mean, rows, inv_noise)),
    ):
        for run in (kernel, loops):
            with pytest.raises(NumericalStateError) as raised:
                run()
            messages.append(str(raised.value))
    assert len(set(messages[:2])) == len(set(messages[2:])) == 1, messages

    # A row with an infinite entry drives pivot i out of (0, inf) too.
    rows = [(*rows[0][:i], float("inf"), *rows[0][i + 1:]), *rows[1:]]
    messages = []
    for run in (policy.kernels(d).update, policy_loops.update):
        with pytest.raises(NumericalStateError) as raised:
            run(precision, mean, rows, inv_noise)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


block = st.integers(1, 4)


@settings(max_examples=150, deadline=None)
@given(d_g=block, d_h=block, data=st.data())
def test_update_and_action_probability_give_the_bits_of_the_loops(d_g, d_h, data):
    d = d_g + d_h
    config = ModelConfig(d_g, d_h, data.draw(st.floats(0.2, 3.0)), (0.0,) * d, 1.0, clip_min=0.05, clip_max=0.95)
    state = PosteriorState(
        data.draw(st.lists(values, min_size=d, max_size=d)),
        pd_precision(data.draw(st.lists(values, min_size=d * d, max_size=d * d)), d),
        update_count=3,
        last_update_seq=40,
    )
    vectors = st.tuples(st.lists(values, min_size=d_g, max_size=d_g), st.lists(values, min_size=d_h, max_size=d_h))
    batch = [
        (snapshot(tuple(g), tuple(h)), data.draw(st.integers(0, 1)), data.draw(values))
        for g, h in data.draw(st.lists(vectors, min_size=1, max_size=6))
    ]
    updated = policy.update_posterior(state, batch, config, last_update_seq=50)
    want, want_factor = policy_loops.update_posterior(state, batch, config, last_update_seq=50)
    assert policy.canonical_serialize(updated) == policy.canonical_serialize(want)
    assert updated.state_hash == want.state_hash and updated == want
    assert factor_bits(updated.factor) == factor_bits(want_factor)
    probe = snapshot(*[tuple(v) for v in data.draw(vectors)])
    for s in (state, updated):
        assert bits(*policy.action_probability(s, probe, config)) == bits(
            *policy_loops.action_probability(s, probe, config)
        )


# -- against conjugate-linear-v1 ---------------------------------------------------------

needs_v1 = pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None, reason="conjugate-linear-v1 needs numpy and scipy"
)

D_G = D_H = 3
D = D_G + D_H
RTOL, ATOL = 1e-9, 1e-12

CONFIG = ModelConfig(D_G, D_H, 0.8, (0.0,) * D, 1.0, clip_min=0.05, clip_max=0.95)

v1_rows = st.tuples(
    st.tuples(values, values, values), st.tuples(values, values, values),
    st.integers(0, 1), st.floats(-5.0, 5.0, allow_nan=False),
)


def spd_state(entries, mean):
    import numpy as np

    a = np.reshape(entries, (D, D))
    precision = a @ a.T + D * np.eye(D)
    precision = (precision + precision.T) / 2.0
    return PosteriorState(mean, precision.ravel())


@needs_v1
@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(values, min_size=D * D, max_size=D * D),
    mean=st.lists(values, min_size=D, max_size=D),
    rhs=st.lists(values, min_size=D, max_size=D),
    batch=st.lists(v1_rows, min_size=1, max_size=8),
    h=st.tuples(values, values, values),
)
def test_v2_agrees_with_v1(entries, mean, rhs, batch, h):
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    from ledgerloop import policy_v1

    state = spd_state(entries, mean)
    precision = np.reshape(state.precision, (D, D))
    reference = cho_factor(precision, lower=True)

    factor = state.factor
    lower = np.tril(reference[0])
    assert np.allclose([row + (0.0,) * (D - len(row)) for row in factor], lower, rtol=RTOL, atol=ATOL)

    solved = policy_loops.backward(factor, policy_loops.forward(factor, rhs))
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


@needs_v1
@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(values, min_size=D * D, max_size=D * D),
    mean=st.lists(values, min_size=D, max_size=D),
    batch=st.lists(v1_rows, min_size=1, max_size=8),
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
