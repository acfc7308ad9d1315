"""Plain-text run configuration: parsing, validation, canonical encoding.

One YAML file declares everything a run needs (model, schedule, features,
imputation, failure injection, twin environment, tuning grids). Validation
errors always name the offending field path so the CLI can exit 64 with a
usable diagnostic. The canonical dict written into the
ledger header is rebuilt from the *typed* values with all floats hex-encoded,
so its digest does not depend on YAML formatting quirks.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigurationError, DecodeError
from .ledger import (
    CONFIG_FORMAT,
    ENVIRONMENT_PROFILES,
    decode_as,
    encode_float,
    map_floats,
)
from .policy import ModelConfig
from .runtime import FailureInjectionSpec, FeatureSpec, ImputationPolicy, Schedule, check_features


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


# -- canonical encoding -----------------------------------------------------------


def header_config_dict(
    config: RunConfig, participants: list[str], environment: EnvironmentSpec | None = None
) -> dict:
    """Self-describing run parameters embedded in the ledger header: the typed
    values with every float hex-encoded. ``environment`` is by default the
    config's own.

    The runtime runs from, and the audits read, its model, schedule,
    features, imputation, injection and participants as they come back
    through ``ledgerloop.events.HeaderInfo``.
    """
    return map_floats(
        {
            "model": config.model,
            "schedule": config.schedule,
            "features": config.features,
            "imputation": config.imputation,
            "injection": config.injection,
            "participants": participants,
            "environment": config.environment if environment is None else environment,
        },
        encode_float,
    )
