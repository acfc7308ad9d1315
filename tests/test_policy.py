import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerloop.errors import (
    ConfigurationError,
    DataError,
    DecodeError,
    NumericalStateError,
)
from ledgerloop import policy
from ledgerloop.policy import (
    DecisionRecord,
    FeatureSnapshot,
    ModelConfig,
    PosteriorState,
    action_probability,
    canonical_deserialize,
    canonical_serialize,
    decide,
    derive_decision_seed,
    init_state,
    update_posterior,
)


def make_config(d_g=3, d_h=3, noise=1.0, lam=1.0, mu0=None, clip=(0.1, 0.9)):
    d = d_g + d_h
    return ModelConfig(
        baseline_dim=d_g,
        treatment_dim=d_h,
        noise_variance=noise,
        prior_mean=tuple(mu0) if mu0 is not None else (0.0,) * d,
        prior_precision_scale=lam,
        clip_min=clip[0],
        clip_max=clip[1],
        version_id="v1",
    )


def matrix(state):
    """The precision of ``state`` as a d x d array."""
    return np.reshape(state.precision, (state.dim, state.dim))


def make_snapshot(baseline, treatment):
    n = len(baseline) + len(treatment)
    return FeatureSnapshot(
        baseline=tuple(baseline),
        treatment=tuple(treatment),
        provenance=("observed",) * n,
        imputation_methods=(None,) * n,
        source_device_ts=(0,) * n,
        assembled_ts=0,
    )


# -- init_state ----------------------------------------------------------------


def test_init_state_identity_prior():
    state = init_state(make_config(d_g=3, d_h=3, lam=1.0))
    assert np.array_equal(state.mean, np.zeros(6))
    assert np.array_equal(matrix(state), np.eye(6))
    assert state.update_count == 0
    assert state.last_update_seq is None


def test_init_state_scaled_identity():
    state = init_state(make_config(d_g=1, d_h=1, lam=2.0))
    assert np.array_equal(matrix(state), np.array([[2.0, 0.0], [0.0, 2.0]]))


def test_init_state_copies_prior_mean():
    state = init_state(make_config(d_g=1, d_h=1, lam=0.5, mu0=(1.0, -1.0)))
    assert np.array_equal(state.mean, np.array([1.0, -1.0]))
    assert np.array_equal(matrix(state), 0.5 * np.eye(2))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        make_config(d_g=0)
    with pytest.raises(ConfigurationError):
        make_config(noise=0.0)
    with pytest.raises(ConfigurationError):
        make_config(lam=-1.0)
    with pytest.raises(ConfigurationError):
        make_config(mu0=(0.0,) * 5)
    with pytest.raises(ConfigurationError):
        make_config(clip=(0.0, 0.9))
    with pytest.raises(ConfigurationError):
        make_config(clip=(0.6, 0.9))
    with pytest.raises(ConfigurationError):
        make_config(clip=(0.1, 1.0))


# -- action_probability ----------------------------------------------------------


def test_symmetric_posterior_gives_half():
    config = make_config()
    state = init_state(config)
    snap = make_snapshot((1.0, 0.5, 0.0), (1.0, 0.5, 0.0))
    pi_raw, pi = action_probability(state, snap, config)
    assert pi_raw == 0.5
    assert pi == 0.5


def test_zero_treatment_vector_gives_half():
    config = make_config()
    state = init_state(config)
    snap = make_snapshot((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    pi_raw, pi = action_probability(state, snap, config)
    assert pi_raw == 0.5


def test_phi_one_case_with_clipping():
    # mu_h = (1), Sigma_hh = [[1]] via identity precision; Phi(1) from an
    # independent erf oracle (mpmath.ncdf) is 0.8413447460685429.
    config = make_config(d_g=1, d_h=1, mu0=(0.0, 1.0), clip=(0.2, 0.8))
    state = init_state(config)
    snap = make_snapshot((1.0,), (1.0,))
    pi_raw, pi = action_probability(state, snap, config)
    assert pi_raw == pytest.approx(0.8413447460685429, abs=1e-12)
    assert pi == 0.8


def test_degenerate_negative_delta():
    config = make_config(d_g=1, d_h=1, mu0=(0.0, -3.0))
    state = init_state(config)
    snap = make_snapshot((1.0,), (0.0,))
    pi_raw, pi = action_probability(state, snap, config)
    assert pi_raw == 0.5  # h = 0 forces delta = 0, v = 0

    # Delta = -30, v = 100 -> Phi(-3); mpmath.ncdf(-3) = 0.0013498980316301.
    snap2 = make_snapshot((1.0,), (10.0,))
    pi_raw2, pi2 = action_probability(state, snap2, config)
    assert pi_raw2 == pytest.approx(0.0013498980316301035, abs=1e-12)
    assert pi2 == config.clip_min


def test_non_pd_precision_raises_numerical_state_error():
    config = make_config(d_g=1, d_h=1)
    bad = PosteriorState(np.zeros(2), [1.0, 0.0, 0.0, -1.0])
    snap = make_snapshot((1.0,), (1.0,))
    with pytest.raises(NumericalStateError):
        action_probability(bad, snap, config)


def test_cached_factor_is_invisible_to_serialization_hash_and_equality():
    config = make_config(d_g=2, d_h=2)
    rng = np.random.default_rng(11)
    batch = [
        (make_snapshot(tuple(rng.normal(size=2)), tuple(rng.normal(size=2))), a, float(rng.normal()))
        for a in (0, 1, 1)
    ]
    updated = update_posterior(init_state(config), batch, config)  # factor handed over
    rebuilt = canonical_deserialize(canonical_serialize(updated))  # factor not yet computed
    encoded, digest = canonical_serialize(rebuilt), rebuilt.state_hash
    assert rebuilt._factor is None

    snap = make_snapshot((0.3, -1.0), (1.0, 0.5))
    probs = [action_probability(s, snap, config) for s in (updated, rebuilt)]
    assert rebuilt._factor is not None
    assert canonical_serialize(rebuilt) == canonical_serialize(updated) == encoded
    assert rebuilt.state_hash == updated.state_hash == digest
    assert rebuilt == updated and hash(rebuilt) == hash(updated)
    # The factor the update handed over is the one factorizing afresh gives,
    # so both states decide to the same bits.
    assert updated.factor == rebuilt.factor == policy._cholesky(updated.precision, 4)
    assert [struct.pack(">dd", *p) for p in probs] == [struct.pack(">dd", *probs[0])] * 2
    assert all(type(row) is tuple for row in updated.factor)


def test_failed_factorization_is_not_cached():
    bad = PosteriorState(np.zeros(2), [1.0, 0.0, 0.0, -1.0])
    for _ in range(2):
        with pytest.raises(NumericalStateError):
            bad.factor
    assert bad._factor is None


def test_dimension_mismatch_is_config_error():
    config = make_config(d_g=2, d_h=2)
    state = init_state(config)
    snap = make_snapshot((1.0,), (1.0,))
    with pytest.raises(ConfigurationError):
        action_probability(state, snap, config)


def test_thompson_probability_matches_monte_carlo():
    # Independent oracle: draw theta ~ N(mu, Lambda^-1) explicitly and count
    # the frequency of h'theta > 0.
    rng = np.random.default_rng(2024)
    for _ in range(25):
        d_g = int(rng.integers(1, 4))
        d_h = int(rng.integers(1, 4))
        d = d_g + d_h
        a = rng.normal(size=(d, d))
        precision = a @ a.T + d * np.eye(d)
        mean = rng.normal(size=d)
        h = rng.normal(size=d_h)
        config = make_config(d_g=d_g, d_h=d_h, clip=(0.05, 0.95))
        state = PosteriorState(mean, ((precision + precision.T) / 2.0).ravel())
        snap = make_snapshot((0.0,) * d_g, tuple(h))
        pi_raw, _ = action_probability(state, snap, config)
        cov = np.linalg.inv(matrix(state))
        draws = rng.multivariate_normal(mean, cov, size=200_000)
        freq = float(np.mean(draws[:, d_g:] @ h > 0))
        assert abs(freq - pi_raw) < 0.01


# -- derive_decision_seed ----------------------------------------------------------


def test_seed_derivation_deterministic():
    assert derive_decision_seed(0, "p1", 0) == derive_decision_seed(0, "p1", 0)


def test_seed_derivation_distinct_across_indices():
    # SHA-256 oracle: recompute both digests independently.
    def oracle(dep, pid, idx):
        raw = struct.pack(">Q", dep) + pid.encode() + struct.pack(">Q", idx)
        return int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")

    assert derive_decision_seed(0, "p1", 0) == oracle(0, "p1", 0)
    assert derive_decision_seed(0, "p1", 1) == oracle(0, "p1", 1)
    assert derive_decision_seed(0, "p1", 0) != derive_decision_seed(0, "p1", 1)


def test_seed_derivation_empty_participant():
    # SHA-256 of 16 zero bytes, first 8 bytes big-endian.
    expected = int.from_bytes(hashlib.sha256(bytes(16)).digest()[:8], "big")
    assert derive_decision_seed(0, "", 0) == expected == 3983162290893594069


# -- decide ----------------------------------------------------------------------


def test_decide_extremes():
    for seed in (0, 1, 2**63, 2**64 - 1, 12345):
        assert decide(0.0, seed) == 0
        assert decide(1.0, seed) == 1


def test_decide_seed_zero_reference():
    # SplitMix64 first output from seed 0 is 0xE220A8397B1DCDAF;
    # u = (out >> 11) * 2^-53 = 0.8833108082136426.
    u = (0xE220A8397B1DCDAF >> 11) * 2.0**-53
    assert u == pytest.approx(0.8833108082136426, abs=1e-15)
    assert decide(0.9, 0) == 1
    assert decide(0.5, 0) == 0


def test_decide_rejects_bad_pi():
    with pytest.raises(ConfigurationError):
        decide(1.5, 0)


# -- update_posterior ----------------------------------------------------------------


def test_empty_batch_is_identity():
    config = make_config()
    state = init_state(config)
    out = update_posterior(state, [], config)
    assert out is state
    assert out.state_hash == state.state_hash


def test_single_observation_example():
    # Independent oracle: solve (L0 + X'X) mu' = L0 mu0 + X'r with dense LU.
    config = make_config(d_g=1, d_h=1)
    state = init_state(config)
    snap = make_snapshot((1.0,), (0.0,))
    out = update_posterior(state, [(snap, 1, 1.0)], config)
    assert np.array_equal(matrix(out), np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(out.mean, [0.5, 0.0], rtol=0, atol=1e-15)
    assert out.update_count == 1
    # oracle cross-check
    oracle_mu = np.linalg.solve(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    assert np.allclose(out.mean, oracle_mu, rtol=1e-12)


def test_two_observation_example():
    config = make_config(d_g=1, d_h=1)
    state = init_state(config)
    snap = make_snapshot((0.0,), (1.0,))
    out = update_posterior(state, [(snap, 1, 2.0), (snap, 1, 2.0)], config)
    assert np.array_equal(matrix(out), np.array([[1.0, 0.0], [0.0, 3.0]]))
    assert np.allclose(out.mean, [0.0, 4.0 / 3.0], rtol=1e-15)


def test_action_zero_masks_treatment_block():
    config = make_config(d_g=1, d_h=1)
    state = init_state(config)
    snap = make_snapshot((1.0,), (1.0,))
    out = update_posterior(state, [(snap, 0, 1.0)], config)
    # x = [1, 0]: treatment precision untouched
    assert matrix(out)[1, 1] == 1.0
    assert out.mean[1] == 0.0


def test_nonfinite_reward_rejects_batch():
    config = make_config(d_g=1, d_h=1)
    state = init_state(config)
    snap = make_snapshot((1.0,), (1.0,))
    with pytest.raises(DataError):
        update_posterior(state, [(snap, 1, float("nan"))], config)
    with pytest.raises(DataError):
        update_posterior(state, [(snap, 1, 1.0), (snap, 0, float("inf"))], config)


def test_update_is_pure():
    config = make_config(d_g=1, d_h=1)
    state = init_state(config)
    before = canonical_serialize(state)
    snap = make_snapshot((1.0,), (1.0,))
    update_posterior(state, [(snap, 1, 1.0)], config)
    assert canonical_serialize(state) == before


def test_update_batch_order_fixed():
    config = make_config(d_g=1, d_h=1)
    state = init_state(config)
    s1 = make_snapshot((1.0,), (0.5,))
    s2 = make_snapshot((0.25,), (1.0,))
    batch = [(s1, 1, 0.7), (s2, 0, -0.3)]
    a = update_posterior(state, batch, config)
    b = update_posterior(state, batch, config)
    assert canonical_serialize(a) == canonical_serialize(b)


def test_batch_vs_incremental_agreement():
    rng = np.random.default_rng(7)
    config = make_config(d_g=2, d_h=2, noise=0.5)
    for _ in range(50):
        state = init_state(config)
        batch = [
            (
                make_snapshot(tuple(rng.normal(size=2)), tuple(rng.normal(size=2))),
                int(rng.integers(0, 2)),
                float(rng.normal()),
            )
            for _ in range(12)
        ]
        k = int(rng.integers(0, 13))
        split = update_posterior(update_posterior(state, batch[:k], config), batch[k:], config)
        whole = update_posterior(state, batch, config)
        assert np.allclose(split.mean, whole.mean, rtol=1e-9, atol=1e-12)
        assert np.allclose(split.precision, whole.precision, rtol=1e-9, atol=1e-12)


def test_posterior_contraction():
    config = make_config(d_g=1, d_h=1)
    state = init_state(config)
    snap = make_snapshot((1.0,), (1.0,))
    x = np.array([1.0, 1.0])
    last = float(x @ np.linalg.solve(matrix(state), x))
    for _ in range(8):
        state = update_posterior(state, [(snap, 1, 1.0)], config)
        v = float(x @ np.linalg.solve(matrix(state), x))
        assert v < last
        last = v


@settings(max_examples=60, deadline=None)
@given(
    mu=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2),
    h=st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=1),
)
def test_clip_containment_property(mu, h):
    config = make_config(d_g=1, d_h=1, mu0=mu, clip=(0.2, 0.8))
    state = init_state(config)
    snap = make_snapshot((1.0,), tuple(h))
    _, pi = action_probability(state, snap, config)
    assert 0.2 <= pi <= 0.8


# -- canonical serialization ---------------------------------------------------------


def test_serialize_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    state = PosteriorState(rng.normal(size=3), (a @ a.T + np.eye(3) * 3).ravel(), 7, 1234)
    data = canonical_serialize(state)
    back = canonical_deserialize(data)
    assert canonical_serialize(back) == data
    assert back.state_hash == state.state_hash
    assert back.update_count == 7 and back.last_update_seq == 1234


def test_serialize_none_seq_round_trip():
    state = init_state(make_config(d_g=1, d_h=1))
    back = canonical_deserialize(canonical_serialize(state))
    assert back.last_update_seq is None


def test_hash_sensitive_to_one_mantissa_bit():
    base = np.array([0.5, 0.0])
    tweaked = base.copy()
    tweaked[0] = np.nextafter(tweaked[0], 1.0)
    s1 = PosteriorState(base, np.eye(2).ravel())
    s2 = PosteriorState(tweaked, np.eye(2).ravel())
    assert s1.state_hash != s2.state_hash


def test_encoding_prefix_d1():
    state = PosteriorState([0.0], [1.0])
    data = canonical_serialize(state)
    assert data[:8] == bytes.fromhex("0000000000000000")
    assert data[8:16] == bytes.fromhex("3ff0000000000000")


def test_deserialize_rejects_bad_lengths():
    state = init_state(make_config(d_g=1, d_h=1))
    data = canonical_serialize(state)
    with pytest.raises(DecodeError):
        canonical_deserialize(data[:-3])
    with pytest.raises(DecodeError):
        canonical_deserialize(data + b"\x00" * 8)
    with pytest.raises(DecodeError):
        canonical_deserialize(b"")


def test_state_requires_bit_exact_symmetry():
    m = np.eye(2)
    m[0, 1] = 1e-300  # asymmetric by one tiny entry
    with pytest.raises(ConfigurationError):
        PosteriorState(np.zeros(2), m.ravel())


def test_state_is_immutable():
    state = init_state(make_config(d_g=1, d_h=1))
    with pytest.raises(AttributeError):
        state.update_count = 5
    with pytest.raises(TypeError):
        state.mean[0] = 1.0


# -- DecisionRecord / FeatureSnapshot validation ----------------------------------------


def test_decision_record_validation():
    with pytest.raises(ConfigurationError):
        DecisionRecord("p", 0, 0.5, 0.5, 1, 2, False)
    with pytest.raises(ConfigurationError):
        DecisionRecord("p", 0, 0.5, 0.5, 1, 1, True, fallback_reason=None)
    rec = DecisionRecord("p", 0, 0.7, 0.7, 1, 1, False, version_id="v1")
    assert rec.action == 1


def test_snapshot_requires_method_for_imputed():
    with pytest.raises(ConfigurationError):
        FeatureSnapshot(
            baseline=(1.0,),
            treatment=(1.0,),
            provenance=("imputed", "observed"),
            imputation_methods=(None, None),
            source_device_ts=(0, 0),
            assembled_ts=0,
        )


def test_purity_across_invocations():
    config = make_config(d_g=2, d_h=2, mu0=(0.1, -0.2, 0.3, 0.4))
    state = init_state(config)
    snap = make_snapshot((1.0, 0.5), (1.0, -0.5))
    results = {action_probability(state, snap, config) for _ in range(5)}
    assert len(results) == 1


def test_purity_across_processes():
    # The same fixed inputs must give bit-identical outputs in a fresh
    # interpreter, not just in this one.
    import subprocess
    import sys

    script = r"""
import struct
from ledgerloop.policy import (
    FeatureSnapshot, ModelConfig, action_probability, canonical_serialize,
    init_state, update_posterior,
)
config = ModelConfig(2, 2, 0.7, (0.1, -0.2, 0.3, 0.4), 1.3, version_id="v1")
snap = FeatureSnapshot(
    baseline=(1.0, 0.5), treatment=(1.0, -0.5),
    provenance=("observed",) * 4, imputation_methods=(None,) * 4,
    source_device_ts=(0,) * 4, assembled_ts=0,
)
state = update_posterior(init_state(config), [(snap, 1, 0.37)], config)
pi_raw, pi = action_probability(state, snap, config)
print(struct.pack(">dd", pi_raw, pi).hex(), canonical_serialize(state).hex())
"""
    runs = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    }
    assert len(runs) == 1

    # and the in-process value matches the subprocess value
    import struct as _struct

    config = make_config(d_g=2, d_h=2, noise=0.7, lam=1.3, mu0=(0.1, -0.2, 0.3, 0.4))
    snap = make_snapshot((1.0, 0.5), (1.0, -0.5))
    state = update_posterior(init_state(config), [(snap, 1, 0.37)], config)
    pi_raw, pi = action_probability(state, snap, config)
    expected_prefix = _struct.pack(">dd", pi_raw, pi).hex()
    assert runs.pop().split()[0] == expected_prefix
