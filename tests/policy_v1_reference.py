"""``conjugate-linear-v1`` written out whole: the reference the v1 logic's
bits and errors must match.

This is v1 as one module, with its own dimension checks, update rows,
degenerate-variance limit, clip and prior, before those steps became the
shared front end in ``ledgerloop.policy``. ``tests/test_v1_reference.py``
requires ``ledgerloop.policy_v1`` to give the same ``(pi_raw, pi)`` bits,
the same updated-state bytes and the same exception type and message on
every input, and ``ledgerloop.policy.init_state`` to give this prior.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from ledgerloop.errors import ConfigurationError, DataError, NumericalStateError
from ledgerloop.policy import FeatureSnapshot, ModelConfig, PosteriorState


def _phi(z: float) -> float:
    """Standard normal CDF via erfc (stable in both tails)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _arrays(state: PosteriorState) -> tuple[np.ndarray, np.ndarray]:
    d = state.dim
    mean = np.array(state.mean, dtype=np.float64)
    precision = np.array(state.precision, dtype=np.float64).reshape(d, d)
    return mean, precision


def _cho(precision: np.ndarray):
    try:
        return cho_factor(precision, lower=True)
    except (LinAlgError, ValueError) as exc:
        raise NumericalStateError(f"precision matrix is not positive definite: {exc}") from None


def init_state(config: ModelConfig) -> PosteriorState:
    """Fresh posterior: mean = prior mean, precision = scale * identity."""
    d = config.dim
    mean = np.asarray(config.prior_mean, dtype=np.float64)
    precision = np.zeros((d, d), dtype=np.float64)
    np.fill_diagonal(precision, config.prior_precision_scale)
    return PosteriorState(mean.tolist(), precision.reshape(-1).tolist())


def action_probability(
    state: PosteriorState, snapshot: FeatureSnapshot, config: ModelConfig
) -> tuple[float, float]:
    """``(pi_raw, pi)`` as :func:`ledgerloop.policy.action_probability`
    defines them, with v1's numerics."""
    d_g, d_h = config.baseline_dim, config.treatment_dim
    if len(snapshot.baseline) != d_g or len(snapshot.treatment) != d_h:
        raise ConfigurationError(
            f"snapshot dims ({len(snapshot.baseline)}, {len(snapshot.treatment)}) "
            f"do not match config ({d_g}, {d_h})"
        )
    if state.dim != config.dim:
        raise ConfigurationError("state dimension does not match config")
    mean, precision = _arrays(state)
    h = np.asarray(snapshot.treatment, dtype=np.float64)
    mu_h = mean[d_g:]
    delta = float(h @ mu_h)

    # v = h' Sigma_hh h with Sigma = Lambda^-1, computed as x' Lambda^-1 x
    # for the zero-padded vector x = [0; h] via one Cholesky solve.
    x = np.zeros(state.dim, dtype=np.float64)
    x[d_g:] = h
    v = float(x @ cho_solve(_cho(precision), x))

    if v <= 0.0:
        # Degenerate posterior along h: the limit of Phi(delta/sqrt(v)).
        pi_raw = 1.0 if delta > 0.0 else (0.5 if delta == 0.0 else 0.0)
    else:
        pi_raw = _phi(delta / math.sqrt(v))
    pi = min(config.clip_max, max(config.clip_min, pi_raw))
    return pi_raw, pi


def update_posterior(
    state: PosteriorState,
    batch: list[tuple[FeatureSnapshot, int, float]],
    config: ModelConfig,
    last_update_seq: int | None = None,
) -> PosteriorState:
    """The conjugate update of :func:`ledgerloop.policy.update_posterior`,
    with v1's numerics."""
    if not batch:
        return state
    d_g, d_h = config.baseline_dim, config.treatment_dim
    d = config.dim
    if state.dim != d:
        raise ConfigurationError("state dimension does not match config")

    for snapshot, action, reward in batch:
        if len(snapshot.baseline) != d_g or len(snapshot.treatment) != d_h:
            raise ConfigurationError("snapshot dims do not match config")
        if action not in (0, 1):
            raise DataError(f"action must be 0 or 1, got {action!r}")
        if not math.isfinite(reward):
            raise DataError(f"non-finite reward {reward!r}; batch rejected")

    inv_noise = 1.0 / config.noise_variance
    state_mean, state_precision = _arrays(state)
    precision = np.array(state_precision, dtype=np.float64, copy=True)
    rhs = state_precision @ state_mean
    for snapshot, action, reward in batch:
        x = np.empty(d, dtype=np.float64)
        x[:d_g] = snapshot.baseline
        x[d_g:] = np.asarray(snapshot.treatment, dtype=np.float64) * float(action)
        precision += np.outer(x, x) * inv_noise
        rhs += x * (reward * inv_noise)

    mean = cho_solve(_cho(precision), rhs)
    if last_update_seq is None:
        last_update_seq = state.last_update_seq
    return PosteriorState(
        mean.tolist(),
        precision.reshape(-1).tolist(),
        update_count=state.update_count + len(batch),
        last_update_seq=last_update_seq,
    )
