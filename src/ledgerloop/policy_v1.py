"""``conjugate-linear-v1``: the posterior numerics on numpy and scipy.

This is the logic every ledger written before ``conjugate-linear-v2`` records.
Its bits depend on the BLAS and LAPACK kernels the host picks, so it stays
only to replay those ledgers, and is imported only when replay meets its
fingerprint. It needs the optional ``v1`` extra (numpy and scipy).

A logic is only its numerics. The dimension checks, the update's rows, the
limit when the variance is not positive, the clip and the prior are
:mod:`ledgerloop.policy`'s, the same for every logic; what is v1's own is
how it computes ``(delta, v)`` and the updated posterior from those rows.
Each function converts the shared :class:`ledgerloop.policy.PosteriorState`
to arrays at its entry and back at its exit, and between those does exactly
what the v1 logic always did, so it reproduces the v1 bits.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import NumericalStateError
from .policy import FeatureSnapshot, ModelConfig, PosteriorState, check_dims, probabilities, update_rows


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


def action_probability(
    state: PosteriorState, snapshot: FeatureSnapshot, config: ModelConfig
) -> tuple[float, float]:
    """``(pi_raw, pi)`` as :func:`ledgerloop.policy.action_probability`
    defines them, with v1's numerics. Unlike v2, v1 returns a NaN pi_raw,
    with pi at clip_min, where v2 refuses it: v1's outputs never change."""
    check_dims(state, snapshot, config)
    d_g = config.baseline_dim
    mean, precision = _arrays(state)
    h = np.asarray(snapshot.treatment, dtype=np.float64)
    mu_h = mean[d_g:]
    delta = float(h @ mu_h)

    # v = h' Sigma_hh h with Sigma = Lambda^-1, computed as x' Lambda^-1 x
    # for the zero-padded vector x = [0; h] via one Cholesky solve.
    x = np.zeros(state.dim, dtype=np.float64)
    x[d_g:] = h
    v = float(x @ cho_solve(_cho(precision), x))
    return probabilities(delta, v, config)


def update_posterior(
    state: PosteriorState,
    batch: list[tuple[FeatureSnapshot, int, float]],
    config: ModelConfig,
    last_update_seq: int | None = None,
) -> PosteriorState:
    """The conjugate update of :func:`ledgerloop.policy.update_posterior`,
    with v1's numerics: each row's outer product and ``x * w`` accumulated
    in batch order onto the precision and ``Lambda mu``, then one Cholesky
    solve."""
    if not batch:
        return state
    rows = update_rows(state, batch, config)
    inv_noise = 1.0 / config.noise_variance
    mean, precision = _arrays(state)
    rhs = precision @ mean
    for *x, w in rows:
        x = np.array(x, dtype=np.float64)
        precision += np.outer(x, x) * inv_noise
        rhs += x * w

    mean = cho_solve(_cho(precision), rhs)
    if last_update_seq is None:
        last_update_seq = state.last_update_seq
    return PosteriorState(
        mean.tolist(),
        precision.reshape(-1).tolist(),
        update_count=state.update_count + len(batch),
        last_update_seq=last_update_seq,
    )
