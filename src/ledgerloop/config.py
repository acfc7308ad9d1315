"""A run's configuration: its typed sections, and the plain-text file they
are parsed and validated from.

One YAML file declares everything a run needs (model, schedule, features,
imputation, failure injection, twin environment, tuning grids). Validation
errors always name the offending field path so the CLI can exit 64 with a
usable diagnostic. The section types are also those of a ledger HEADER's
config (``ledgerloop.events.RunHeader``), which is written from the typed
values, so its digest does not depend on YAML formatting quirks.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigurationError, DecodeError
from .ledger import CONFIG_FORMAT, ENVIRONMENT_PROFILES, decode_as
from .policy import ModelConfig

MS_PER_DAY = 86_400_000
MS_PER_MINUTE = 60_000
MAX_TRIAL_DAYS = 36_525  # a century; the monitor reports every day of a trial


def _parse_clock(text: str, where: str) -> int:
    """\"HH:MM\" -> milliseconds since local midnight."""
    try:
        hours, minutes = text.split(":")
        h, m = int(hours), int(minutes)
    except (ValueError, AttributeError):
        raise ConfigurationError(f"{where}: expected \"HH:MM\", got {text!r}") from None
    if not (0 <= h < 24 and 0 <= m < 60):
        raise ConfigurationError(f"{where}: {text!r} is not a valid time of day")
    return (h * 60 + m) * MS_PER_MINUTE


@dataclass(frozen=True)
class Schedule:
    """Daily decision and update timing for one trial. Its sizes,
    ``points_per_day`` and ``total_points``, are set once on construction."""

    decision_times: tuple[str, ...] = ("09:00", "18:00")
    update_time: str = "23:00"
    trial_days: int = 28
    trial_start_ts: int = 0

    def __post_init__(self):
        if not self.decision_times:
            raise ConfigurationError("schedule.decision_times must be non-empty")
        if not 1 <= self.trial_days <= MAX_TRIAL_DAYS:
            raise ConfigurationError(f"schedule.trial_days must be in [1, {MAX_TRIAL_DAYS}]")
        offsets = [
            _parse_clock(t, f"schedule.decision_times[{i}]")
            for i, t in enumerate(self.decision_times)
        ]
        if any(a >= b for a, b in zip(offsets, offsets[1:])):
            raise ConfigurationError("schedule.decision_times must be strictly increasing")
        update_offset = _parse_clock(self.update_time, "schedule.update_time")
        if update_offset in offsets:
            raise ConfigurationError("schedule.update_time must differ from decision_times")
        object.__setattr__(self, "_decision_offsets", tuple(offsets))
        object.__setattr__(self, "_update_offset", update_offset)
        object.__setattr__(self, "_trial_ms", self.trial_days * MS_PER_DAY)
        object.__setattr__(self, "points_per_day", len(offsets))
        object.__setattr__(self, "total_points", self.trial_days * len(offsets))

    def due_ts(self, decision_index: int) -> int:
        day, slot = divmod(decision_index, self.points_per_day)
        return self.trial_start_ts + day * MS_PER_DAY + self._decision_offsets[slot]

    def window(self, ts: int) -> int:
        """The decision index whose window holds ``ts``: window j is
        ``(due_ts(j - 1), due_ts(j)]``, so a time at or before the first due
        time is window 0, one before the trial start -1, and one after the
        last due time ``total_points``."""
        t = ts - self.trial_start_ts
        if t < 0:
            return -1
        if t >= self._trial_ms:
            return self.total_points
        offsets = self._decision_offsets
        return t // MS_PER_DAY * len(offsets) + bisect_left(offsets, t % MS_PER_DAY)

    def day(self, ts: int) -> int:
        """The trial day of ``ts``; earlier and later times count on the first and last day."""
        return min(max((ts - self.trial_start_ts) // MS_PER_DAY, 0), self.trial_days - 1)

    def update_ts(self, day: int) -> int:
        return self.trial_start_ts + day * MS_PER_DAY + self._update_offset

    def decision_points(self, day: int) -> list[tuple[int, int]]:
        """All (decision_index, due_ts) for one trial day; indices are global
        per participant: day * k + slot."""
        if not (0 <= day < self.trial_days):
            raise ConfigurationError(f"day {day} outside trial range [0, {self.trial_days})")
        k = self.points_per_day
        return [(day * k + slot, self.due_ts(day * k + slot)) for slot in range(k)]


@dataclass(frozen=True)
class FeatureSpec:
    """Names of the data features feeding the baseline and treatment vectors.

    Every entry is a named datum (the constant intercept included): an entry
    is `observed` exactly when a fresh datum for its name arrived in time.
    """

    baseline: tuple[str, ...] = ("intercept", "prior_outcome", "time_of_day")
    treatment: tuple[str, ...] = ("intercept", "prior_outcome", "engagement")
    # Every feature name once, in first-use order.
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.baseline or not self.treatment:
            raise ConfigurationError("features.baseline and features.treatment must be non-empty")
        object.__setattr__(self, "names", tuple(dict.fromkeys(self.baseline + self.treatment)))


@dataclass(frozen=True)
class ImputationPolicy:
    """Carry-forward horizon (in decision points) and per-feature defaults."""

    horizon: int = 3
    defaults: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 0:
            raise ConfigurationError("imputation.horizon must be non-negative")
        defaults = {k: float(v) for k, v in dict(self.defaults).items()}
        for name, value in defaults.items():
            # A snapshot holding a NaN or infinite default fails every later update.
            if not math.isfinite(value):
                raise ConfigurationError(f"imputation.defaults.{name} must be finite, got {value!r}")
        object.__setattr__(self, "defaults", defaults)

    def default_for(self, feature: str) -> float:
        return self.defaults[feature]  # check_features gives every feature of a run one


@dataclass(frozen=True)
class FailureInjectionSpec:
    """Synthetic fault probabilities for QA runs; None defers to the twin
    environment's own missingness/latency parameters."""

    policy_exception_prob: float = 0.0
    data_loss_prob: float | None = None
    delay_geometric_p: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.policy_exception_prob <= 1.0):
            raise ConfigurationError("injection.policy_exception_prob must be in [0, 1]")
        if self.data_loss_prob is not None and not (0.0 <= self.data_loss_prob <= 1.0):
            raise ConfigurationError("injection.data_loss_prob must be in [0, 1]")
        if self.delay_geometric_p is not None and not (0.0 < self.delay_geometric_p <= 1.0):
            raise ConfigurationError("injection.delay_geometric_p must be in (0, 1]")


def check_features(model: ModelConfig, features: FeatureSpec, imputation: ImputationPolicy) -> None:
    """ConfigurationError unless every feature has an imputation default and
    the feature lists are as long as the model's dimensions: what a run's
    sections must agree on, checked once for a config
    (:func:`config_from_dict`) and once for a HEADER's
    (:class:`ledgerloop.events.RunHeader`)."""
    for name in features.names:
        if name not in imputation.defaults:
            raise ConfigurationError(f"imputation.defaults.{name}: missing required field")
    d_g, d_h = len(features.baseline), len(features.treatment)
    if (d_g, d_h) != (model.baseline_dim, model.treatment_dim):
        raise ConfigurationError(
            f"feature spec dims ({d_g}, {d_h}) do not match model config "
            f"({model.baseline_dim}, {model.treatment_dim})"
        )


@dataclass(frozen=True)
class EnvironmentSpec:
    """Generative parameters of one simulated deployment environment."""

    effect_mean: tuple[float, ...] = (0.5, 0.0, 0.0)
    effect_sd: float = 0.0
    baseline_mean: tuple[float, ...] = (0.2, 0.0, 0.0)
    baseline_sd: float = 0.0
    drift: float = 0.0
    outcome_noise_sd: float = 1.0
    engagement_persistence: float = 0.5
    action_engagement_boost: float = 0.2
    engagement_noise_sd: float = 0.1
    miss_prob: float = 0.0
    delay_geometric_p: float = 1.0
    n_participants: int = 20
    n_days: int = 28
    label: str = "env"

    def __post_init__(self):
        object.__setattr__(self, "effect_mean", tuple(float(v) for v in self.effect_mean))
        object.__setattr__(self, "baseline_mean", tuple(float(v) for v in self.baseline_mean))
        # NaN passes every comparison below as false, so it is refused here.
        for name in ("effect_mean", "baseline_mean"):
            for i, value in enumerate(getattr(self, name)):
                if not math.isfinite(value):
                    raise ConfigurationError(f"{name}[{i}] must be finite, got {value!r}")
        for name in ("effect_sd", "baseline_sd", "drift", "outcome_noise_sd", "action_engagement_boost",
                     "engagement_noise_sd"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.effect_sd < 0 or self.baseline_sd < 0 or self.engagement_noise_sd < 0:
            raise ConfigurationError("sd parameters must be non-negative")
        if self.outcome_noise_sd < 0:
            raise ConfigurationError("outcome_noise_sd must be non-negative")
        if not (0.0 <= self.engagement_persistence < 1.0):
            raise ConfigurationError("engagement_persistence must be in [0, 1)")
        if not (0.0 <= self.miss_prob <= 1.0):
            raise ConfigurationError("miss_prob must be in [0, 1]")
        if not (0.0 < self.delay_geometric_p <= 1.0):
            raise ConfigurationError("delay_geometric_p must be in (0, 1]")
        if self.n_participants < 1 or self.n_days < 1:
            raise ConfigurationError("n_participants and n_days must be positive")


# The grid's axes: a list of levels for any EnvironmentSpec field but the label.
EnvironmentAxes = make_dataclass(
    "EnvironmentAxes",
    [
        (name, tuple[hint, ...] | None, None)
        for name, hint in get_type_hints(EnvironmentSpec).items()
        if name != "label"
    ],
    frozen=True,
)
# Before Python 3.12 make_dataclass names the module "types"; pickles need this one.
EnvironmentAxes.__module__ = __name__


@dataclass(frozen=True)
class Tuning:
    """The twin-tune grid: each candidate's levels, and the seeds every
    candidate runs on. An empty grid stands for the model's own value, and
    no seeds for the master seed."""

    prior_precision_scale: tuple[float, ...] = ()
    noise_variance: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()


@dataclass(frozen=True)
class VersionSwitch:
    day: int
    version_id: str


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Everything one simulate/twin run needs, typed and checked: what a
    config file holds, which may leave out any section but ``model``.
    ``grid`` gives the axes of the environments that twin-run and twin-tune
    evaluate, and ``environments`` holds those environments."""

    model: ModelConfig
    master_seed: int = 0
    environment_profile: str = "test"
    stream_id: str | None = None
    deployment_seed: int | None = None
    schedule: Schedule = field(default_factory=Schedule)
    features: FeatureSpec = field(default_factory=FeatureSpec)
    imputation: ImputationPolicy = field(default_factory=ImputationPolicy)
    injection: FailureInjectionSpec = field(default_factory=FailureInjectionSpec)
    environment: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    tuning: Tuning = field(default_factory=Tuning)
    version_switch: VersionSwitch | None = None
    grid: EnvironmentAxes = field(default_factory=EnvironmentAxes)
    environments: tuple[EnvironmentSpec, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "environments", _environment_grid(self.environment, self.grid))


# Where a config's model defaults differ from ModelConfig's.
_MODEL_DEFAULTS = {"noise_variance": 1.0, "prior_precision_scale": 1.0, "version_id": "v1.0.0"}
# Standard features carry implicit imputation defaults; custom ones must be explicit.
_STANDARD_DEFAULTS = {"intercept": 1.0, "prior_outcome": 0.0, "time_of_day": 0.0, "engagement": 0.0}


def read_yaml(path: str | Path, unreadable: str, what: str):
    """The value of the YAML file at ``path``. A ConfigurationError reads
    ``<unreadable>: <error>`` if the file cannot be read, and ``<what>
    <path> is not valid YAML: line L, column C: <problem>`` if it is not
    valid YAML. PyYAML is imported here only, so the audit verbs run
    without it."""
    import yaml

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"{unreadable}: {exc}") from None
    try:
        # libyaml's safe loader where PyYAML was built with it: the values
        # the pure-Python one gives, several times faster.
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is None:  # a reader error: a character YAML does not allow, at a position
            at = exc.position
            line, column = text.count("\n", 0, at), at - text.rfind("\n", 0, at) - 1
            problem = str(exc).splitlines()[0]
        else:
            line, column, problem = mark.line, mark.column, exc.problem
        raise ConfigurationError(
            f"{what} {path} is not valid YAML: line {line + 1}, column {column + 1}: {problem}"
        ) from None


def load_config(path: str | Path) -> RunConfig:
    raw = read_yaml(path, f"cannot read config file {path}", "config file")
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a mapping")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    """The typed config of a parsed YAML mapping, every section decoded in
    one pass from its dataclass's annotations (:data:`CONFIG_FORMAT`), then
    the checks that span several fields. Any problem raises
    ConfigurationError naming its path."""
    if type(raw.get("model")) is dict:
        raw = {**raw, "model": {**_MODEL_DEFAULTS, **raw["model"]}}
    try:
        config = decode_as(RunConfig, raw, CONFIG_FORMAT)
    except DecodeError as exc:
        raise ConfigurationError(str(exc)) from None

    if config.environment_profile not in ENVIRONMENT_PROFILES:
        raise ConfigurationError(
            f"environment_profile: {config.environment_profile!r} is not one of dev/test/prod-sim"
        )
    names = config.features.names
    defaults = {
        **{name: value for name, value in _STANDARD_DEFAULTS.items() if name in names},
        **config.imputation.defaults,
    }
    imputation = dataclasses.replace(config.imputation, defaults=defaults)
    check_features(config.model, config.features, imputation)
    switch = config.version_switch
    if switch is not None:
        # The trial length is governed by the twin environment's n_days, so
        # the upper bound is checked at run time, not here.
        if switch.day < 1:
            raise ConfigurationError("version_switch.day: must be at least 1")
        if switch.version_id == config.model.version_id:
            raise ConfigurationError("version_switch.version_id: must differ from model.version_id")
    return dataclasses.replace(config, imputation=imputation)


def _environment_grid(base: EnvironmentSpec, axes) -> tuple[EnvironmentSpec, ...]:
    """The Cartesian product of the axes' levels over ``base``, labelled
    env000, env001, ...: axes in EnvironmentSpec field order, levels in
    their given order. Without axes, ``base`` alone."""
    given = {name: levels for name, levels in vars(axes).items() if levels is not None}
    if not given:
        return (base,)
    for name, levels in given.items():
        if not levels:
            raise ConfigurationError(f"grid.{name}: expected a non-empty list")
    try:
        return tuple(
            dataclasses.replace(base, label=f"env{i:03d}", **dict(zip(given, combo)))
            for i, combo in enumerate(itertools.product(*given.values()))
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"grid: {exc}") from None
