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
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

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

    @property
    def dim(self) -> int:
        return self.baseline_dim + self.treatment_dim


class PosteriorState:
    """Gaussian posterior over the stacked weights, stored as (mean, precision).

    Arrays are locked read-only after construction; "updating" a state means
    building a new one. ``state_hash`` is the SHA-256 of the canonical
    serialization and is recomputed on construction, never trusted from input.
    The Cholesky factor of the precision is derived data: computed at most
    once per state and kept out of serialization, hashing and equality.
    """

    __slots__ = ("mean", "precision", "update_count", "last_update_seq", "state_hash", "_factor")

    def __init__(
        self,
        mean: np.ndarray,
        precision: np.ndarray,
        update_count: int = 0,
        last_update_seq: int | None = None,
    ):
        mean = np.array(mean, dtype=np.float64, copy=True).reshape(-1)
        precision = np.array(precision, dtype=np.float64, copy=True)
        d = mean.shape[0]
        if precision.shape != (d, d):
            raise ConfigurationError(
                f"precision shape {precision.shape} does not match mean length {d}"
            )
        # Symmetry must hold bit-for-bit, not just within tolerance: the
        # canonical encoding stores every entry and replay compares bytes.
        if not np.array_equal(precision, precision.T):
            raise ConfigurationError("precision matrix is not bit-exactly symmetric")
        if update_count < 0:
            raise ConfigurationError("update_count must be non-negative")
        mean.flags.writeable = False
        precision.flags.writeable = False
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
        return self.mean.shape[0]

    @property
    def factor(self):
        """``cho_factor(precision, lower=True)``, computed on first use.

        Raises NumericalStateError, without caching anything, when the
        precision is not positive definite.
        """
        if self._factor is None:
            self._set_factor(_cho(self.precision))
        return self._factor

    def _set_factor(self, factor) -> None:
        factor[0].flags.writeable = False
        object.__setattr__(self, "_factor", factor)

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
        if self.decision_index < 0:
            raise ConfigurationError("decision_index must be non-negative")
        if not (0.0 <= self.pi_raw <= 1.0 and 0.0 <= self.pi <= 1.0):
            raise ConfigurationError("probabilities must lie in [0, 1]")
        if self.action not in (0, 1):
            raise ConfigurationError("action must be 0 or 1")
        if self.fallback and not self.fallback_reason:
            raise ConfigurationError("fallback decisions must carry a reason")


def init_state(config: ModelConfig) -> PosteriorState:
    """Fresh posterior: mean = prior mean, precision = scale * identity."""
    d = config.dim
    mean = np.asarray(config.prior_mean, dtype=np.float64)
    precision = np.zeros((d, d), dtype=np.float64)
    np.fill_diagonal(precision, config.prior_precision_scale)
    return PosteriorState(mean, precision, update_count=0, last_update_seq=None)


def _cho(precision: np.ndarray):
    try:
        return cho_factor(precision, lower=True)
    except (LinAlgError, ValueError) as exc:
        raise NumericalStateError(f"precision matrix is not positive definite: {exc}") from None


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
    h = np.asarray(snapshot.treatment, dtype=np.float64)
    mu_h = state.mean[d_g:]
    delta = float(h @ mu_h)

    # v = h' Sigma_hh h with Sigma = Lambda^-1, computed as x' Lambda^-1 x
    # for the zero-padded vector x = [0; h] via one Cholesky solve.
    x = np.zeros(state.dim, dtype=np.float64)
    x[d_g:] = h
    v = float(x @ cho_solve(state.factor, x))

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
    precision = np.array(state.precision, dtype=np.float64, copy=True)
    rhs = state.precision @ state.mean
    for snapshot, action, reward in batch:
        x = np.empty(d, dtype=np.float64)
        x[:d_g] = snapshot.baseline
        x[d_g:] = np.asarray(snapshot.treatment, dtype=np.float64) * float(action)
        precision += np.outer(x, x) * inv_noise
        rhs += x * (reward * inv_noise)

    factor = _cho(precision)
    mean = cho_solve(factor, rhs)
    if last_update_seq is None:
        last_update_seq = state.last_update_seq
    new_state = PosteriorState(
        mean,
        precision,
        update_count=state.update_count + len(batch),
        last_update_seq=last_update_seq,
    )
    # The state holds a bit-identical copy of ``precision``, so this factor
    # is the one action_probability would compute from it.
    new_state._set_factor(factor)
    return new_state


def canonical_serialize(state: PosteriorState) -> bytes:
    """Bit-exact encoding: mean entries, then precision row-major, each as
    8 big-endian IEEE-754 bytes, then update_count and last_update_seq as
    8 big-endian bytes (all-ones sentinel for "never updated")."""
    parts = [struct.pack(">d", float(v)) for v in state.mean]
    parts += [struct.pack(">d", float(v)) for v in state.precision.reshape(-1)]
    parts.append(struct.pack(">Q", state.update_count))
    seq = _NO_SEQ if state.last_update_seq is None else state.last_update_seq
    parts.append(struct.pack(">Q", seq))
    return b"".join(parts)


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
    mean = np.array(floats[:d], dtype=np.float64)
    precision = np.array(floats[d:], dtype=np.float64).reshape(d, d)
    update_count, seq = struct.unpack(">QQ", data[8 * (d + d * d):])
    return PosteriorState(
        mean,
        precision,
        update_count=update_count,
        last_update_seq=None if seq == _NO_SEQ else seq,
    )
