"""Binary-action contextual bandit with conjugate Bayesian linear updates.

The model is a Bayesian linear regression over stacked features
``x = [g(s); a * h(s)]`` with known noise variance: the baseline block g(s)
enters every observation, the treatment block h(s) only when the action was 1.
The randomization probability for action 1 is the closed-form probability that
a posterior draw of the treatment effect is positive, clipped so both actions
stay explorable.

Everything here is a pure function over immutable values: no operation
mutates its inputs, and identical inputs give bit-identical outputs. That is
what makes logged decisions and updates replayable after the fact.

The module-level functions are ``conjugate-linear-v2``, the default logic.
Its numerics are plain Python floats in one fixed order of operations: a
lower Cholesky factor computed row by row, forward and back substitution with
every sum taken in increasing index order, and the outer-product update
summed in batch order. No BLAS kernel chosen by the host enters, so the bits
are the same on every IEEE-754 machine with the same ``math.erfc``; the
logic's fingerprint (``ledgerloop.replay``) checks that. ``policy_v1`` holds
the earlier numpy/scipy logic for replaying ledgers it wrote.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from .errors import ConfigurationError, DataError, DecodeError, NumericalStateError
from .rng import splitmix64_next, unit_float

PROVENANCE_TAGS = ("observed", "imputed", "default")

# Sentinel for "no update yet" in the canonical state encoding.
_NO_SEQ = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class ModelConfig:
    """Static parameters of one deployed model version."""

    baseline_dim: int
    treatment_dim: int
    noise_variance: float
    prior_mean: tuple[float, ...]
    prior_precision_scale: float
    clip_min: float = 0.1
    clip_max: float = 0.9
    version_id: str = "v0"

    def __post_init__(self):
        d = self.baseline_dim + self.treatment_dim
        if self.baseline_dim < 1 or self.treatment_dim < 1:
            raise ConfigurationError("baseline_dim and treatment_dim must be positive")
        if not (self.noise_variance > 0.0):
            raise ConfigurationError("noise_variance must be > 0")
        if not (self.prior_precision_scale > 0.0):
            raise ConfigurationError("prior_precision_scale must be > 0")
        if len(self.prior_mean) != d:
            raise ConfigurationError(
                f"prior_mean has length {len(self.prior_mean)}, expected {d}"
            )
        if not (0.0 < self.clip_min <= 0.5):
            raise ConfigurationError("clip_min must be in (0, 0.5]")
        if not (0.5 <= self.clip_max < 1.0):
            raise ConfigurationError("clip_max must be in [0.5, 1)")
        if self.clip_min > self.clip_max:
            raise ConfigurationError("clip_min must be <= clip_max")
        object.__setattr__(self, "prior_mean", tuple(float(v) for v in self.prior_mean))
        for name in ("noise_variance", "prior_precision_scale", "clip_min", "clip_max"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def dim(self) -> int:
        return self.baseline_dim + self.treatment_dim


class PosteriorState:
    """Gaussian posterior over the stacked weights, stored as (mean, precision).

    ``mean`` is a tuple of d floats and ``precision`` a tuple of d * d floats
    in row-major order; "updating" a state means building a new one.
    ``state_hash`` is the SHA-256 of the canonical serialization and is
    recomputed on construction, never trusted from input. The lower Cholesky
    factor of the precision is derived data: computed at most once per state
    and kept out of serialization, hashing and equality.
    """

    __slots__ = ("mean", "precision", "update_count", "last_update_seq", "state_hash", "_factor")

    def __init__(
        self,
        mean,
        precision,
        update_count: int = 0,
        last_update_seq: int | None = None,
    ):
        mean = tuple(map(float, mean))
        d = len(mean)
        if len(precision) != d * d:
            raise ConfigurationError(
                f"precision has {len(precision)} entries; a row-major {d}x{d} "
                f"matrix for mean length {d} has {d * d}"
            )
        precision = tuple(map(float, precision))
        # Symmetry must hold bit-for-bit, not just within tolerance: the
        # canonical encoding stores every entry and replay compares bytes.
        # The diagonal is compared too, so a NaN on it is refused.
        for i in range(d):
            for j in range(i + 1):
                if precision[i * d + j] != precision[j * d + i]:
                    raise ConfigurationError("precision matrix is not bit-exactly symmetric")
        if update_count < 0:
            raise ConfigurationError("update_count must be non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "update_count", int(update_count))
        object.__setattr__(
            self, "last_update_seq", None if last_update_seq is None else int(last_update_seq)
        )
        object.__setattr__(self, "state_hash", hashlib.sha256(canonical_serialize(self)).digest())
        object.__setattr__(self, "_factor", None)

    def __setattr__(self, name, value):
        raise AttributeError("PosteriorState is immutable")

    @property
    def dim(self) -> int:
        return len(self.mean)

    @property
    def factor(self) -> tuple[tuple[float, ...], ...]:
        """The lower Cholesky factor of the precision, row ``i`` holding its
        ``i + 1`` entries up to the diagonal, computed on first use.

        Raises NumericalStateError, without caching anything, when the
        precision is not positive definite.
        """
        if self._factor is None:
            object.__setattr__(self, "_factor", _cholesky(self.precision, self.dim))
        return self._factor

    def __eq__(self, other) -> bool:
        if not isinstance(other, PosteriorState):
            return NotImplemented
        return self.state_hash == other.state_hash

    def __hash__(self) -> int:
        return hash(self.state_hash)

    def __repr__(self) -> str:
        return (
            f"PosteriorState(d={self.dim}, update_count={self.update_count}, "
            f"last_update_seq={self.last_update_seq}, "
            f"hash={self.state_hash.hex()[:12]})"
        )


@dataclass(frozen=True)
class FeatureSnapshot:
    """The exact feature vectors used at one decision point, frozen forever.

    ``provenance`` has one tag per entry, baseline entries first, then
    treatment entries. ``imputation_methods`` and ``source_device_ts`` are
    aligned with ``provenance``; method is set exactly for imputed entries,
    device timestamps are None for entries that had no source datum.
    """

    baseline: tuple[float, ...]
    treatment: tuple[float, ...]
    provenance: tuple[str, ...]
    imputation_methods: tuple[str | None, ...]
    source_device_ts: tuple[int | None, ...]
    assembled_ts: int

    def __post_init__(self):
        object.__setattr__(self, "baseline", tuple(float(v) for v in self.baseline))
        object.__setattr__(self, "treatment", tuple(float(v) for v in self.treatment))
        n = len(self.baseline) + len(self.treatment)
        if len(self.provenance) != n:
            raise ConfigurationError("provenance must tag every feature entry")
        if len(self.imputation_methods) != n or len(self.source_device_ts) != n:
            raise ConfigurationError("per-entry metadata must match entry count")
        for tag, method in zip(self.provenance, self.imputation_methods):
            if tag not in PROVENANCE_TAGS:
                raise ConfigurationError(f"unknown provenance tag {tag!r}")
            if tag == "imputed" and not method:
                raise ConfigurationError("imputed entries must name their method")


@dataclass(frozen=True)
class DecisionRecord:
    """One randomized decision: everything needed to re-derive the action."""

    participant_id: str
    decision_index: int
    pi_raw: float
    pi: float
    seed: int
    action: int
    fallback: bool
    fallback_reason: str | None = None
    version_id: str = "v0"

    def __post_init__(self):
        if not 0 <= self.decision_index < 2**64:  # its seed derivation takes 8 bytes
            raise ConfigurationError("decision_index must be in [0, 2**64)")
        if not (0.0 <= self.pi_raw <= 1.0 and 0.0 <= self.pi <= 1.0):
            raise ConfigurationError("probabilities must lie in [0, 1]")
        if self.action not in (0, 1):
            raise ConfigurationError("action must be 0 or 1")
        if self.fallback and not self.fallback_reason:
            raise ConfigurationError("fallback decisions must carry a reason")


def init_state(config: ModelConfig) -> PosteriorState:
    """Fresh posterior: mean = prior mean, precision = scale * identity."""
    d = config.dim
    scale = config.prior_precision_scale
    precision = [0.0] * (d * d)
    precision[:: d + 1] = [scale] * d
    return PosteriorState(config.prior_mean, precision, update_count=0, last_update_seq=None)


def _cholesky(precision: tuple[float, ...], d: int) -> tuple[tuple[float, ...], ...]:
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


def _forward(factor, b, start: int = 0) -> list[float]:
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


def _backward(factor, y) -> list[float]:
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


def _phi(z: float) -> float:
    """Standard normal CDF via erfc (stable in both tails)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def action_probability(
    state: PosteriorState, snapshot: FeatureSnapshot, config: ModelConfig
) -> tuple[float, float]:
    """Selection probability for action 1 given the current posterior.

    Returns ``(pi_raw, pi)`` where pi_raw is the posterior probability that
    the treatment effect h(s)'theta is positive and pi is pi_raw clipped to
    [clip_min, clip_max].
    """
    d_g, d_h = config.baseline_dim, config.treatment_dim
    if len(snapshot.baseline) != d_g or len(snapshot.treatment) != d_h:
        raise ConfigurationError(
            f"snapshot dims ({len(snapshot.baseline)}, {len(snapshot.treatment)}) "
            f"do not match config ({d_g}, {d_h})"
        )
    if state.dim != config.dim:
        raise ConfigurationError("state dimension does not match config")
    h = snapshot.treatment
    delta = 0.0
    for h_j, mu_j in zip(h, state.mean[d_g:]):
        delta += h_j * mu_j

    # v = h' Sigma_hh h with Sigma = Lambda^-1 is x' Lambda^-1 x for the
    # zero-padded x = [0; h], which is |y|^2 for L y = x.
    y = _forward(state.factor, (0.0,) * d_g + h, start=d_g)
    v = 0.0
    for y_i in y[d_g:]:
        v += y_i * y_i

    if v <= 0.0:
        # Degenerate posterior along h: the limit of Phi(delta/sqrt(v)).
        pi_raw = 1.0 if delta > 0.0 else (0.5 if delta == 0.0 else 0.0)
    else:
        pi_raw = _phi(delta / math.sqrt(v))
    pi = min(config.clip_max, max(config.clip_min, pi_raw))
    return pi_raw, pi


def derive_decision_seed(deployment_seed: int, participant_id: str, decision_index: int) -> int:
    """Per-decision seed: first 8 bytes (big-endian) of SHA-256 over
    deployment seed, participant id, and decision index."""
    h = hashlib.sha256()
    h.update((deployment_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))
    h.update(participant_id.encode("utf-8"))
    h.update(int(decision_index).to_bytes(8, "big"))
    return int.from_bytes(h.digest()[:8], "big")


def decide(pi: float, seed: int) -> int:
    """Map (probability, seed) to an action with one SplitMix64 step.

    The uniform deviate is never stored; it is always re-derivable from the
    logged seed, which is what makes logged decisions checkable.
    """
    if not (0.0 <= pi <= 1.0):
        raise ConfigurationError("pi must lie in [0, 1]")
    _, word = splitmix64_next(seed)
    u = unit_float(word)
    return 1 if u < pi else 0




def update_posterior(
    state: PosteriorState,
    batch: list[tuple[FeatureSnapshot, int, float]],
    config: ModelConfig,
    last_update_seq: int | None = None,
) -> PosteriorState:
    """Conjugate posterior update on a batch of (snapshot, action, reward).

    Precision gains sigma^-2 * x x' per observation and the mean solves
    Lambda' mu' = Lambda mu + sigma^-2 * sum(x_i r_i) via Cholesky. Sums run
    in batch order so the result is a deterministic function of the ordered
    batch. The input state is never modified; an empty batch returns it
    unchanged.
    """
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
    precision = list(state.precision)
    mean = state.mean
    rhs = []
    for i in range(d):
        s = 0.0
        for a_ij, mu_j in zip(precision[i * d : i * d + d], mean):
            s += a_ij * mu_j
        rhs.append(s)
    for snapshot, action, reward in batch:
        a = float(action)
        x = snapshot.baseline + tuple(t * a for t in snapshot.treatment)
        w = reward * inv_noise
        for i, x_i in enumerate(x):
            base = i * d
            for j in range(i + 1):
                precision[base + j] += (x_i * x[j]) * inv_noise
            rhs[i] += x_i * w
    for i in range(d):  # the upper triangle mirrors the lower, bit for bit
        for j in range(i):
            precision[j * d + i] = precision[i * d + j]

    factor = _cholesky(precision, d)
    new_mean = _backward(factor, _forward(factor, rhs))
    if last_update_seq is None:
        last_update_seq = state.last_update_seq
    new_state = PosteriorState(
        new_mean,
        precision,
        update_count=state.update_count + len(batch),
        last_update_seq=last_update_seq,
    )
    # The state holds the same ``precision``, so this factor is the one
    # action_probability would compute from it.
    object.__setattr__(new_state, "_factor", factor)
    return new_state


def canonical_serialize(state: PosteriorState) -> bytes:
    """Bit-exact encoding: mean entries, then precision row-major, each as
    8 big-endian IEEE-754 bytes, then update_count and last_update_seq as
    8 big-endian bytes (all-ones sentinel for "never updated")."""
    seq = _NO_SEQ if state.last_update_seq is None else state.last_update_seq
    n = len(state.mean) + len(state.precision)
    return struct.pack(f">{n}dQQ", *state.mean, *state.precision, state.update_count, seq)


def canonical_deserialize(data: bytes) -> PosteriorState:
    """Inverse of :func:`canonical_serialize`; rejects byte strings whose
    length does not correspond to any dimension d."""
    if len(data) % 8 != 0:
        raise DecodeError(f"state encoding length {len(data)} is not a multiple of 8")
    n = len(data) // 8
    # n = d^2 + d + 2 must have a positive integer root.
    disc = 1 + 4 * (n - 2)
    if n < 4 or disc < 0:
        raise DecodeError(f"state encoding with {n} words matches no dimension")
    root = math.isqrt(disc)
    if root * root != disc or (root - 1) % 2 != 0:
        raise DecodeError(f"state encoding with {n} words matches no dimension")
    d = (root - 1) // 2
    if d < 1 or d * d + d + 2 != n:
        raise DecodeError(f"state encoding with {n} words matches no dimension")
    floats = struct.unpack(f">{d + d * d}d", data[: 8 * (d + d * d)])
    update_count, seq = struct.unpack(">QQ", data[8 * (d + d * d):])
    return PosteriorState(
        floats[:d],
        floats[d:],
        update_count=update_count,
        last_update_seq=None if seq == _NO_SEQ else seq,
    )
