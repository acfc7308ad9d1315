"""The loop form of conjugate-linear-v2's numerics: the bit-exactness
reference for the straight-line kernels ``ledgerloop.policy`` generates.

Each function runs the operations of the kernel it mirrors, in the same
order, with Python loops: a lower Cholesky factor computed row by row,
forward and back substitution with every sum taken in increasing index
order, and the update's precision and right-hand side summed in batch order.
The kernels must give the same bits on every input; ``tests/test_kernels.py``
checks that.
"""

from __future__ import annotations

import math

from ledgerloop.errors import ConfigurationError, DataError, NumericalStateError
from ledgerloop.policy import PosteriorState, _phi


def cholesky(precision, d: int) -> tuple[tuple[float, ...], ...]:
    """Lower Cholesky factor of a row-major d x d matrix, row by row: entry
    (i, j) is ``a[i][j]`` minus ``L[i][k] * L[j][k]`` for k = 0, 1, ... in
    turn, then divided by ``L[j][j]``, or its square root on the diagonal."""
    rows: list[tuple[float, ...]] = []
    for i in range(d):
        a_i = precision[i * d : i * d + i + 1]
        row: list[float] = []
        for j in range(i + 1):
            s = a_i[j]
            r_j = rows[j] if j < i else row
            for k in range(j):
                s -= row[k] * r_j[k]
            if j < i:
                row.append(s / r_j[j])
            elif 0.0 < s < math.inf:
                row.append(math.sqrt(s))
            else:  # also NaN and infinity
                raise NumericalStateError(
                    f"precision matrix is not positive definite (pivot {i} is {s!r})"
                )
        rows.append(tuple(row))
    return tuple(rows)


def forward(factor, b, start: int = 0) -> list[float]:
    """``y`` with ``L y = b`` for rows ``start`` on, where ``b`` is zero before
    ``start`` (so ``y`` is too and those rows are skipped); sums run over
    k = start, start + 1, ... in turn."""
    y = [0.0] * len(b)
    for i in range(start, len(b)):
        row = factor[i]
        s = b[i]
        for k in range(start, i):
            s -= row[k] * y[k]
        y[i] = s / row[i]
    return y


def backward(factor, y) -> list[float]:
    """``x`` with ``L' x = y``, for i = d - 1 down to 0; each sum runs over
    k = i + 1, i + 2, ... in turn."""
    d = len(y)
    x = [0.0] * d
    for i in range(d - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, d):
            s -= factor[k][i] * x[k]
        x[i] = s / factor[i][i]
    return x


def update(precision, mean, rows, inv_noise):
    """The update kernel's loops: ``rhs`` is the precision times the mean;
    each row ``(*x, w)`` adds ``(x_i * x_j) * inv_noise`` to the lower
    triangle and ``x_i * w`` to ``rhs[i]``; the upper triangle mirrors the
    lower, and the new mean solves ``L y = rhs``, ``L' mean = y``."""
    d = len(mean)
    precision = list(precision)
    rhs = []
    for i in range(d):
        s = 0.0
        for a_ij, mu_j in zip(precision[i * d : i * d + d], mean):
            s += a_ij * mu_j
        rhs.append(s)
    for *x, w in rows:
        for i, x_i in enumerate(x):
            base = i * d
            for j in range(i + 1):
                precision[base + j] += (x_i * x[j]) * inv_noise
            rhs[i] += x_i * w
    for i in range(d):  # the upper triangle mirrors the lower, bit for bit
        for j in range(i):
            precision[j * d + i] = precision[i * d + j]
    factor = cholesky(precision, d)
    return tuple(backward(factor, forward(factor, rhs))), tuple(precision), factor


def action(factor, mean, h, start: int) -> tuple[float, float]:
    """The action kernel's loops: ``delta = h' mean[start:]`` and
    ``v = |y[start:]|^2`` for ``L y = [0; h]``, both summed from 0.0."""
    delta = 0.0
    for h_j, mu_j in zip(h, mean[start:]):
        delta += h_j * mu_j
    y = forward(factor, (0.0,) * start + tuple(h), start=start)
    v = 0.0
    for y_i in y[start:]:
        v += y_i * y_i
    return delta, v


def action_probability(state, snapshot, config) -> tuple[float, float]:
    """``policy.action_probability`` with loops, on a loop-computed factor."""
    factor = cholesky(state.precision, state.dim)
    delta, v = action(factor, state.mean, snapshot.treatment, config.baseline_dim)
    if v <= 0.0:
        pi_raw = 1.0 if delta > 0.0 else (0.5 if delta == 0.0 else 0.0)
    else:
        pi_raw = _phi(delta / math.sqrt(v))
    if not 0.0 <= pi_raw <= 1.0:
        raise DataError(f"pi_raw {pi_raw!r} is not a probability")
    return pi_raw, min(config.clip_max, max(config.clip_min, pi_raw))


def update_posterior(state, batch, config, last_update_seq=None):
    """``policy.update_posterior`` with loops; returns the new state and the
    factor of its precision."""
    if not batch:
        return state, None
    d_g, d_h = config.baseline_dim, config.treatment_dim
    if state.dim != config.dim:
        raise ConfigurationError("state dimension does not match config")
    for snapshot, action_, reward in batch:
        if len(snapshot.baseline) != d_g or len(snapshot.treatment) != d_h:
            raise ConfigurationError("snapshot dims do not match config")
        if action_ not in (0, 1):
            raise DataError(f"action must be 0 or 1, got {action_!r}")
        if not math.isfinite(reward):
            raise DataError(f"non-finite reward {reward!r}; batch rejected")
    inv_noise = 1.0 / config.noise_variance
    rows = [
        snapshot.baseline + tuple(t * float(action_) for t in snapshot.treatment) + (reward * inv_noise,)
        for snapshot, action_, reward in batch
    ]
    mean, precision, factor = update(state.precision, state.mean, rows, inv_noise)
    if last_update_seq is None:
        last_update_seq = state.last_update_seq
    new_state = PosteriorState(
        mean, precision, update_count=state.update_count + len(batch), last_update_seq=last_update_seq
    )
    return new_state, factor
