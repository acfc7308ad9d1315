"""Plain-text run configuration: parsing, validation, canonical encoding.

One YAML file declares everything a run needs (model, schedule, features,
imputation, failure injection, twin environment, tuning grids). Validation
errors always name the offending field path so the CLI can exit 64 with a
usable diagnostic. The canonical dict written into the
ledger header is rebuilt from the *typed* values with all floats hex-encoded,
so its digest does not depend on YAML formatting quirks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigurationError
from .ledger import canonical_json_bytes, encode_float, map_floats
from .policy import ModelConfig
from .runtime import FailureInjectionSpec, FeatureSpec, ImputationPolicy, Schedule


def _get(mapping: dict, key: str, default=None, required=False):
    if not isinstance(mapping, dict) or key not in mapping:
        if required:
            raise ConfigurationError(f"{key}: missing required field")
        return default
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
    return value


def _vector(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{path}: expected a list of numbers, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def model_config_from_dict(raw: dict, where: str = "model") -> ModelConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where}: expected a mapping")
    try:
        return ModelConfig(
            baseline_dim=_int(_get(raw, "baseline_dim", required=True), f"{where}.baseline_dim"),
            treatment_dim=_int(_get(raw, "treatment_dim", required=True), f"{where}.treatment_dim"),
            noise_variance=_number(_get(raw, "noise_variance", 1.0), f"{where}.noise_variance"),
            prior_mean=_vector(_get(raw, "prior_mean", required=True), f"{where}.prior_mean"),
            prior_precision_scale=_number(
                _get(raw, "prior_precision_scale", 1.0), f"{where}.prior_precision_scale"
            ),
            clip_min=_number(_get(raw, "clip_min", 0.1), f"{where}.clip_min"),
            clip_max=_number(_get(raw, "clip_max", 0.9), f"{where}.clip_max"),
            version_id=str(_get(raw, "version_id", "v1.0.0")),
        )
    except ConfigurationError as exc:
        if str(exc).startswith(where):
            raise
        raise ConfigurationError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class VersionSwitch:
    day: int
    version_id: str


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulate/twin run needs, already validated."""

    master_seed: int
    environment_profile: str
    stream_id: str | None
    deployment_seed: int | None
    model: ModelConfig
    schedule: Schedule
    features: FeatureSpec
    imputation: ImputationPolicy
    injection: FailureInjectionSpec
    environment: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    tuning: dict = field(default_factory=dict)
    version_switch: VersionSwitch | None = None


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config file is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be a mapping")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    profile = _get(raw, "environment_profile", "test")
    if profile not in ("dev", "test", "prod-sim"):
        raise ConfigurationError(
            f"environment_profile: {profile!r} is not one of dev/test/prod-sim"
        )
    model = model_config_from_dict(_get(raw, "model", required=True))

    sched_raw = _get(raw, "schedule", {})
    schedule = Schedule(
        decision_times=tuple(_get(sched_raw, "decision_times", ("09:00", "18:00"))),
        update_time=_get(sched_raw, "update_time", "23:00"),
        trial_days=_int(_get(sched_raw, "trial_days", 28), "schedule.trial_days"),
        trial_start_ts=_int(_get(sched_raw, "trial_start_ts", 0), "schedule.trial_start_ts"),
    )

    feat_raw = _get(raw, "features", {})
    features = FeatureSpec(
        baseline=tuple(_get(feat_raw, "baseline", FeatureSpec.baseline)),
        treatment=tuple(_get(feat_raw, "treatment", FeatureSpec.treatment)),
    )

    imp_raw = _get(raw, "imputation", {})
    # Standard features carry implicit defaults; custom ones must be explicit.
    default_defaults = {
        name: (1.0 if name == "intercept" else 0.0)
        for name in ("intercept", "prior_outcome", "time_of_day", "engagement")
        if name in features.names
    }
    imputation = ImputationPolicy(
        horizon=_int(_get(imp_raw, "horizon", 3), "imputation.horizon"),
        defaults={**default_defaults, **(_get(imp_raw, "defaults", {}) or {})},
    )
    for name in features.names:
        if name not in imputation.defaults:
            raise ConfigurationError(f"imputation.defaults.{name}: missing required field")

    inj_raw = _get(raw, "injection", {})
    injection = FailureInjectionSpec(
        policy_exception_prob=_number(
            _get(inj_raw, "policy_exception_prob", 0.0), "injection.policy_exception_prob"
        ),
        data_loss_prob=(
            None
            if _get(inj_raw, "data_loss_prob") is None
            else _number(_get(inj_raw, "data_loss_prob"), "injection.data_loss_prob")
        ),
        delay_geometric_p=(
            None
            if _get(inj_raw, "delay_geometric_p") is None
            else _number(_get(inj_raw, "delay_geometric_p"), "injection.delay_geometric_p")
        ),
    )

    switch_raw = _get(raw, "version_switch")
    version_switch = None
    if switch_raw is not None:
        version_switch = VersionSwitch(
            day=_int(_get(switch_raw, "day", required=True), "version_switch.day"),
            version_id=str(_get(switch_raw, "version_id", required=True)),
        )
        # The trial length is governed by the twin environment's n_days, so
        # the upper bound is checked at run time, not here.
        if version_switch.day < 1:
            raise ConfigurationError("version_switch.day: must be at least 1")
        if version_switch.version_id == model.version_id:
            raise ConfigurationError("version_switch.version_id: must differ from model.version_id")

    seed_raw = _get(raw, "master_seed", 0)
    deployment_seed = _get(raw, "deployment_seed")
    return RunConfig(
        master_seed=_int(seed_raw, "master_seed"),
        environment_profile=profile,
        stream_id=_get(raw, "stream_id"),
        deployment_seed=(
            None if deployment_seed is None else _int(deployment_seed, "deployment_seed")
        ),
        model=model,
        schedule=schedule,
        features=features,
        imputation=imputation,
        injection=injection,
        environment=_get(raw, "environment", {}) or {},
        grid=_get(raw, "grid", {}) or {},
        tuning=_get(raw, "tuning", {}) or {},
        version_switch=version_switch,
    )


# -- canonical encoding -----------------------------------------------------------


def header_config_dict(config: RunConfig, participants: list[str], environment=None) -> dict:
    """Self-describing run parameters embedded in the ledger header: the typed
    values with every float hex-encoded. ``environment`` is an
    ``EnvironmentSpec`` or a mapping, by default the config's own.

    Audits read its model, schedule and participants back through
    ``ledgerloop.events.HeaderInfo``.
    """
    return map_floats(
        {
            "model": config.model,
            "schedule": config.schedule,
            "features": config.features,
            "imputation": config.imputation,
            "injection": config.injection,
            "participants": participants,
            "environment": environment if environment is not None else config.environment,
        },
        encode_float,
    )


def config_digest(header_config: dict) -> str:
    return hashlib.sha256(canonical_json_bytes(header_config)).hexdigest()

