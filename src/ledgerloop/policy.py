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

A logic is only its numerics: how it computes the treatment effect's
posterior mean and variance ``(delta, v)`` and the updated posterior. Every
other step is written once, here, and is the same for every logic: the prior
(:func:`init_state`), the dimension checks (:func:`check_dims`), the update's
rows and their checks (:func:`update_rows`), the limit when ``v <= 0`` and
the clip (:func:`probabilities`), the seed derivation, the coin and the
state encoding.

:func:`action_probability` and :func:`update_posterior` are
``conjugate-linear-v2``, the default logic. Its numerics are plain Python
floats in one fixed order of operations: a lower Cholesky factor computed
row by row, forward and back substitution with every sum taken in
increasing index order, and the outer-product update summed in batch order. That order lives in generated code: for each model
dimension d, :func:`kernels` writes the factor, the update and the action
probability's solve as straight-line Python source, every loop unrolled, and
compiles it on first use (never at import). ``tests/policy_loops.py`` keeps
the loop form, which the kernels must match bit for bit. No BLAS kernel
chosen by the host enters, so the bits are the same on every IEEE-754 machine
with the same ``math.erfc``; the logic's fingerprint (``ledgerloop.replay``)
checks that. ``policy_v1`` holds the earlier numpy/scipy logic for replaying
ledgers it wrote.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError, DataError, DecodeError, NumericalStateError
from .ledger import frozen_record
from .rng import splitmix64_next, unit_float

PROVENANCE_TAGS = ("observed", "imputed", "default")
_FLOAT = frozenset({float})

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
        for i, value in enumerate(self.prior_mean):
            if not math.isfinite(value):
                raise ConfigurationError(f"prior_mean[{i}] must be finite, got {value!r}")
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
    recomputed on construction, never trusted from input; the state keeps
    the bytes it was hashed from, which :func:`canonical_serialize` returns.
    The lower Cholesky factor of the precision is derived data: computed at
    most once per state and kept out of serialization, hashing and equality.
    """

    __slots__ = ("mean", "precision", "update_count", "last_update_seq", "state_hash", "_encoded", "_factor")

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
        self._seal(mean, precision, int(update_count), last_update_seq, None)

    @classmethod
    def _built(cls, mean, precision, update_count, last_update_seq, factor) -> "PosteriorState":
        """The state a kernel computed, with its precision's ``factor``:
        tuples of floats, the precision symmetric by construction, so none
        of ``__init__``'s conversions and checks are repeated."""
        state = object.__new__(cls)
        state._seal(mean, precision, update_count, last_update_seq, factor)
        return state

    def _seal(self, mean, precision, update_count, last_update_seq, factor) -> None:
        """Set every slot: the fields, their encoding (see
        :func:`canonical_serialize`), its SHA-256 and ``factor``."""
        last_update_seq = None if last_update_seq is None else int(last_update_seq)
        encoded = struct.pack(
            f">{len(mean) + len(precision)}dQQ", *mean, *precision, update_count,
            _NO_SEQ if last_update_seq is None else last_update_seq,
        )
        setattr_ = object.__setattr__
        setattr_(self, "mean", mean)
        setattr_(self, "precision", precision)
        setattr_(self, "update_count", update_count)
        setattr_(self, "last_update_seq", last_update_seq)
        setattr_(self, "_encoded", encoded)
        setattr_(self, "state_hash", hashlib.sha256(encoded).digest())
        setattr_(self, "_factor", factor)

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
            object.__setattr__(self, "_factor", kernels(len(self.mean)).factor(self.precision))
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


@frozen_record
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
        baseline, treatment = self.baseline, self.treatment
        # A decoder or the runtime hands over tuples of floats already.
        if not (type(baseline) is tuple is type(treatment) and {*map(type, baseline + treatment)} <= _FLOAT):
            object.__setattr__(self, "baseline", tuple(map(float, baseline)))
            object.__setattr__(self, "treatment", tuple(map(float, treatment)))
        n = len(self.baseline) + len(self.treatment)
        if len(self.provenance) != n:
            raise ConfigurationError("provenance must tag every feature entry")
        if len(self.imputation_methods) != n or len(self.source_device_ts) != n:
            raise ConfigurationError("per-entry metadata must match entry count")
        # Every tag "observed" or "default": the loop would find nothing.
        if self.provenance.count("observed") + self.provenance.count("default") == n:
            return
        for tag, method in zip(self.provenance, self.imputation_methods):
            if tag not in PROVENANCE_TAGS:
                raise ConfigurationError(f"unknown provenance tag {tag!r}")
            if tag == "imputed" and not method:
                raise ConfigurationError("imputed entries must name their method")


@frozen_record
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


# -- straight-line kernels -------------------------------------------------------
#
# The numerics of one dimension d are generated as Python source with every
# loop unrolled, the entries held in locals named by position: ``a{i}_{j}``
# the precision, ``l{i}_{j}`` its lower Cholesky factor, ``m{i}`` the mean.
# Each statement is one step of the fixed order in the module docstring;
# ``tests/policy_loops.py`` keeps the loop form they must match bit for bit.


def _not_positive_definite(pivot: int, s: float) -> NumericalStateError:
    return NumericalStateError(f"precision matrix is not positive definite (pivot {pivot} is {s!r})")


def _cholesky_lines(d: int) -> list[str]:
    """Statements setting ``l{i}_{j}`` from ``a{i}_{j}`` (i >= j), row by
    row: entry (i, j) is ``a{i}_{j}`` minus ``l{i}_{k} * l{j}_{k}`` for
    k = 0, 1, ... in turn, then divided by ``l{j}_{j}``, or its square root
    on the diagonal, which must lie in (0, inf) (NaN does not)."""
    lines = []
    for i in range(d):
        for j in range(i + 1):
            s = f"a{i}_{j}" + "".join(f" - l{i}_{k} * l{j}_{k}" for k in range(j))
            if j < i:
                lines.append(f"l{i}_{j} = ({s}) / l{j}_{j}")
            else:
                lines += [
                    f"s = {s}",
                    f"if not 0.0 < s < inf: raise _not_positive_definite({i}, s)",
                    f"l{i}_{i} = sqrt(s)",
                ]
    return lines


def _factor_text(d: int, start: int = 0) -> str:
    """A factor as source text: a tuple of rows, row ``i`` a tuple of the
    ``l{i}_{j}`` up to the diagonal; rows and columns before ``start`` are
    ``_``, so that as an unpacking target it names only the rest."""
    rows = (
        "_" if i < start else "(" + "".join("_, " if j < start else f"l{i}_{j}, " for j in range(i + 1)) + ")"
        for i in range(d)
    )
    return "(" + ", ".join(rows) + ",)"


def _kernel_source(d: int) -> dict[str, str]:
    """The source of each of dimension ``d``'s kernels, by name:

    - ``factor(precision)``: the lower Cholesky factor, row ``i`` a tuple of
      its ``i + 1`` entries.
    - ``update(precision, mean, rows, inv_noise)``: the update's new mean,
      precision and factor. ``rhs[i]`` starts as row ``i`` of the precision
      times the mean, summed from 0.0; each row ``(x0, ..., x{d-1}, w)``
      then adds ``(x_i * x_j) * inv_noise`` to the lower triangle and
      ``x_i * w`` to ``rhs[i]``. The upper triangle mirrors the lower,
      ``factor`` factors it, and the mean solves ``L y = rhs``, then
      ``L' mean = y``.
    - ``action_{s}(factor, mean, h)`` for each split ``s`` of the d entries
      into ``s`` baseline and ``d - s`` treatment ones: ``delta``, the sum
      of ``h_j * mean[s + j]`` from 0.0, and ``v``, the sum of ``y_i * y_i``
      from 0.0 for ``L y = [0; h]`` solved from row ``s`` on.
    """
    n = range(d)
    functions = {
        "factor": [
            "def factor(precision):",
            f"    {', '.join(f'a{i}_{j}' if j <= i else '_' for i in n for j in n)}, = precision",
            *(f"    {line}" for line in _cholesky_lines(d)),
            f"    return {_factor_text(d)}",
        ],
        "update": [
            "def update(precision, mean, rows, inv_noise):",
            f"    {', '.join(f'a{i}_{j}' for i in n for j in n)}, = precision",
            f"    {', '.join(f'm{i}' for i in n)}, = mean",
            *(f"    r{i} = 0.0" + "".join(f" + a{i}_{j} * m{j}" for j in n) for i in n),
            f"    for {''.join(f'x{i}, ' for i in n)}w in rows:",
            *(f"        a{i}_{j} += (x{i} * x{j}) * inv_noise" for i in n for j in range(i + 1)),
            *(f"        r{i} += x{i} * w" for i in n),
            f"    precision = ({''.join(f'a{max(i, j)}_{min(i, j)}, ' for i in n for j in n)})",
            "    lower = factor(precision)",
            f"    {_factor_text(d)} = lower",
            *(f"    y{i} = (r{i}" + "".join(f" - l{i}_{k} * y{k}" for k in range(i)) + f") / l{i}_{i}" for i in n),
            *(f"    z{i} = (y{i}" + "".join(f" - l{k}_{i} * z{k}" for k in range(i + 1, d)) + f") / l{i}_{i}"
              for i in reversed(n)),
            f"    return ({''.join(f'z{i}, ' for i in n)}), precision, lower",
        ],
    }
    for s in range(1, d):
        t = range(s, d)
        functions[f"action_{s}"] = [
            f"def action_{s}(factor, mean, h):",
            f"    {_factor_text(d, s)} = factor",
            f"    {', '.join('_' if i < s else f'm{i}' for i in n)}, = mean",
            f"    {''.join(f'h{i}, ' for i in t)}= h",
            "    delta = 0.0" + "".join(f" + h{i} * m{i}" for i in t),
            *(f"    y{i} = (h{i}" + "".join(f" - l{i}_{k} * y{k}" for k in range(s, i)) + f") / l{i}_{i}" for i in t),
            "    return delta, 0.0" + "".join(f" + y{i} * y{i}" for i in t),
        ]
    return {name: "\n".join(lines) + "\n" for name, lines in functions.items()}


@dataclass(frozen=True)
class _Kernels:
    """The compiled kernels of one dimension (see :func:`_kernel_source`);
    ``action`` maps the baseline dimension to its kernel."""

    factor: Callable
    update: Callable
    action: dict[int, Callable]


_KERNELS: dict[int, _Kernels] = {}


def kernels(d: int) -> _Kernels:
    """The kernels of dimension ``d``, compiled on first use and kept."""
    compiled = _KERNELS.get(d)
    if compiled is None:
        namespace = {"sqrt": math.sqrt, "inf": math.inf, "_not_positive_definite": _not_positive_definite}
        # One compile per function: compiling holds the parse tree of its
        # input, and a process pool's workers inherit that peak.
        for source in _kernel_source(d).values():
            exec(compile(source, f"<kernels of d={d}>", "exec"), namespace)
        compiled = _KERNELS[d] = _Kernels(
            namespace["factor"], namespace["update"], {s: namespace[f"action_{s}"] for s in range(1, d)}
        )
    return compiled


def _phi(z: float) -> float:
    """Standard normal CDF via erfc (stable in both tails)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# -- the front end of every logic --------------------------------------------------
#
# What a logic's action probability and update do around their numerics is
# the same for every logic, so it is written once, here: each logic calls
# these steps and computes only ``(delta, v)`` and the updated posterior.


def check_dims(state: PosteriorState, snapshot: FeatureSnapshot, config: ModelConfig) -> None:
    """ConfigurationError unless ``snapshot`` and ``state`` have the
    dimensions of ``config``."""
    d_g, d_h = config.baseline_dim, config.treatment_dim
    if len(snapshot.baseline) != d_g or len(snapshot.treatment) != d_h:
        raise ConfigurationError(
            f"snapshot dims ({len(snapshot.baseline)}, {len(snapshot.treatment)}) "
            f"do not match config ({d_g}, {d_h})"
        )
    if state.dim != config.dim:
        raise ConfigurationError("state dimension does not match config")


def probabilities(delta: float, v: float, config: ModelConfig) -> tuple[float, float]:
    """``(pi_raw, pi)`` for a treatment effect with posterior mean ``delta``
    and variance ``v``: pi_raw is ``Phi(delta / sqrt(v))``, or its limit when
    ``v <= 0``, and pi is pi_raw clipped to [clip_min, clip_max]. A NaN
    pi_raw clips to clip_min; refusing it is for the logic."""
    if v <= 0.0:
        # Degenerate posterior along h: the limit of Phi(delta/sqrt(v)).
        pi_raw = 1.0 if delta > 0.0 else (0.5 if delta == 0.0 else 0.0)
    else:
        pi_raw = _phi(delta / math.sqrt(v))
    return pi_raw, min(config.clip_max, max(config.clip_min, pi_raw))


def update_rows(
    state: PosteriorState, batch: list[tuple[FeatureSnapshot, int, float]], config: ModelConfig
) -> list[tuple[float, ...]]:
    """One row per observation of a non-empty ``batch``, in batch order: the
    entries of ``x = [g; a * h]``, then ``w = reward / sigma^2``.

    ConfigurationError for a state or snapshot of other dimensions than
    ``config``'s, DataError for an action other than 0 or 1 or a non-finite
    reward; the first refused row is reported.
    """
    d_g, d_h = config.baseline_dim, config.treatment_dim
    if state.dim != config.dim:
        raise ConfigurationError("state dimension does not match config")
    inv_noise = 1.0 / config.noise_variance
    rows = []
    for snapshot, action, reward in batch:
        if len(snapshot.baseline) != d_g or len(snapshot.treatment) != d_h:
            raise ConfigurationError("snapshot dims do not match config")
        if action not in (0, 1):
            raise DataError(f"action must be 0 or 1, got {action!r}")
        if not math.isfinite(reward):
            raise DataError(f"non-finite reward {reward!r}; batch rejected")
        a = float(action)
        rows.append((*snapshot.baseline, *[t * a for t in snapshot.treatment], reward * inv_noise))
    return rows


def action_probability(
    state: PosteriorState, snapshot: FeatureSnapshot, config: ModelConfig
) -> tuple[float, float]:
    """Selection probability for action 1 given the current posterior.

    Returns ``(pi_raw, pi)`` where pi_raw is the posterior probability that
    the treatment effect h(s)'theta is positive and pi is pi_raw clipped to
    [clip_min, clip_max] (see :func:`probabilities`). DataError when pi_raw
    is not a number in [0, 1], as a NaN or infinite feature makes it.
    """
    check_dims(state, snapshot, config)
    # delta = h' mu_h; v = h' Sigma_hh h with Sigma = Lambda^-1 is
    # x' Lambda^-1 x for the zero-padded x = [0; h], which is |y|^2 for L y = x.
    delta, v = kernels(config.dim).action[config.baseline_dim](state.factor, state.mean, snapshot.treatment)
    pi_raw, pi = probabilities(delta, v, config)
    if not 0.0 <= pi_raw <= 1.0:  # NaN, from a NaN or infinite feature
        raise DataError(f"pi_raw {pi_raw!r} is not a probability")
    return pi_raw, pi


def derive_decision_seed(deployment_seed: int, participant_id: str, decision_index: int) -> int:
    """Per-decision seed: first 8 bytes (big-endian) of SHA-256 over
    deployment seed, participant id, and decision index."""
    h = hashlib.sha256()
    h.update((deployment_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))
    h.update(participant_id.encode("utf-8"))
    h.update(int(decision_index).to_bytes(8, "big"))
    return int.from_bytes(h.digest()[:8], "big")


FALLBACK_PI = 0.5  # the uniform rule's pi_raw and pi: 1/|A| for two actions


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
    unchanged. A batch :func:`update_rows` refuses is refused.
    """
    if not batch:
        return state
    rows = update_rows(state, batch, config)
    mean, precision, factor = kernels(config.dim).update(
        state.precision, state.mean, rows, 1.0 / config.noise_variance
    )
    if last_update_seq is None:
        last_update_seq = state.last_update_seq
    return PosteriorState._built(
        mean, precision, state.update_count + len(batch), last_update_seq, factor
    )


def canonical_serialize(state: PosteriorState) -> bytes:
    """Bit-exact encoding: mean entries, then precision row-major, each as
    8 big-endian IEEE-754 bytes, then update_count and last_update_seq as
    8 big-endian bytes (all-ones sentinel for "never updated"). These are
    the bytes ``state_hash`` is the SHA-256 of, kept on the state when it
    was built."""
    return state._encoded


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
