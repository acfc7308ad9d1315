import pytest

from conftest import BASE_CONFIG, make_run_config
from ledgerloop.config import (
    config_digest,
    config_from_dict,
    header_config_dict,
    load_config,
    model_config_from_canonical,
)
from ledgerloop.errors import ConfigurationError


def test_load_config_from_yaml(tmp_path):
    import yaml

    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(BASE_CONFIG))
    config = load_config(path)
    assert config.master_seed == 42
    assert config.model.baseline_dim == 3
    assert config.schedule.trial_days == 3


def test_missing_model_names_field():
    with pytest.raises(ConfigurationError, match="model"):
        config_from_dict({"master_seed": 1})


def test_bad_clip_names_field():
    with pytest.raises(ConfigurationError, match="clip"):
        make_run_config(model={"clip_min": 0.0})


def test_bad_profile_named():
    with pytest.raises(ConfigurationError, match="environment_profile"):
        make_run_config(environment_profile="production")


def test_bad_update_time_named():
    with pytest.raises(ConfigurationError, match="update_time"):
        make_run_config(schedule={"update_time": "24:99"})


def test_update_time_collision_rejected():
    with pytest.raises(ConfigurationError, match="update_time"):
        make_run_config(schedule={"update_time": "09:00"})


def test_missing_imputation_default_rejected():
    with pytest.raises(ConfigurationError, match="imputation.defaults"):
        make_run_config(features={"baseline": ["intercept", "custom_feature", "time_of_day"]})


def test_version_switch_validation():
    with pytest.raises(ConfigurationError, match="version_switch.day"):
        make_run_config(version_switch={"day": 0, "version_id": "v2"})
    with pytest.raises(ConfigurationError, match="version_switch.version_id"):
        make_run_config(version_switch={"day": 1, "version_id": "v1.0.0"})
    config = make_run_config(version_switch={"day": 1, "version_id": "v1.0.1"})
    assert config.version_switch.day == 1


def test_version_switch_beyond_trial_rejected_at_run_time():
    from ledgerloop.twin import environment_from_dict, run_trial

    config = make_run_config(version_switch={"day": 99, "version_id": "v1.0.1"})
    env = environment_from_dict(config.environment)
    with pytest.raises(ConfigurationError, match="version_switch.day"):
        run_trial(env, config, 1)


def test_model_config_canonical_round_trip():
    config = make_run_config()
    back = model_config_from_canonical(header_config_dict(config, ["p000"])["model"])
    assert back == config.model


def test_config_digest_stable_and_sensitive():
    config = make_run_config()
    header = header_config_dict(config, ["p000"])
    assert config_digest(header) == config_digest(header_config_dict(config, ["p000"]))
    other = make_run_config(model={"noise_variance": 2.0})
    assert config_digest(header) != config_digest(header_config_dict(other, ["p000"]))


def test_default_intercept_default_is_one():
    config = make_run_config()
    assert config.imputation.default_for("intercept") == 1.0
    assert config.imputation.default_for("engagement") == 0.0


def test_injection_validation():
    with pytest.raises(ConfigurationError, match="policy_exception_prob"):
        make_run_config(injection={"policy_exception_prob": 1.5})
