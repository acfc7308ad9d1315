import bisect
import pickle
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASE_CONFIG, YAML_CHECKED, YAML_LOADER, make_run_config, make_run_header, yaml_outcome
from ledgerloop.cli import main
from ledgerloop.config import MS_PER_DAY, Schedule, config_from_dict, load_config
from ledgerloop.errors import ConfigurationError
from ledgerloop.ledger import LEDGER_FORMAT, config_digest, decode_as, encode_float, map_floats
from ledgerloop.policy import ModelConfig


def test_load_config_from_yaml(tmp_path):
    import yaml

    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(BASE_CONFIG))
    config = load_config(path)
    assert config.master_seed == 42
    assert config.model.baseline_dim == 3
    assert config.schedule.trial_days == 3


EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"

# Texts where a YAML loader could go its own way: a control character, tab
# indentation, a duplicate key, a byte-order mark, a NEL line break, and
# YAML 1.1 scalars (booleans, hex, octal, underscores, dates, infinities).
EDGE_TEXTS = [
    "a: \x07\n",
    "\ta: 1\n",
    "a: 1\na: 2\n",
    "\ufeffa: 1\n",
    "a: x\x85y\n",
    "a: yes\nb: 0x1F\nc: 1_000\nd: 2001-01-01\ne: .inf\nf: ~\ng: 0o17\nh: 017\ni: Off\nj: 1e3\n",
]


@pytest.mark.parametrize("text", [EXAMPLE.read_text(), *EDGE_TEXTS])
def test_libyaml_reads_what_the_python_loader_reads(text):
    assert yaml_outcome(text, YAML_LOADER) == yaml_outcome(text, yaml.SafeLoader)


def test_every_yaml_text_the_tests_read_is_checked_with_both_loaders():
    # The session-wide check of conftest.both_yaml_loaders sees load_config,
    # which reads with libyaml's loader where PyYAML has it.
    before = len(YAML_CHECKED)
    load_config(EXAMPLE)
    assert len(YAML_CHECKED) == before + (YAML_LOADER is not yaml.SafeLoader)


@pytest.mark.parametrize("text", ["model: [unclosed\n", "\ta: 1\n", "a: \x07\n", "a: b\n  c: d\n"])
def test_invalid_yaml_is_one_config_error(tmp_path, capsys, text):
    # One line that names the file and where in it the loader stopped.
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {config} is not valid YAML: line ")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert "<unicode string>" not in err
    assert not (tmp_path / "out").exists()


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
    from ledgerloop.twin import run_trial

    config = make_run_config(version_switch={"day": 99, "version_id": "v1.0.1"})
    with pytest.raises(ConfigurationError, match="version_switch.day"):
        run_trial(config.environment, config, 1)


def test_model_config_canonical_round_trip():
    config = make_run_config()
    back = decode_as(ModelConfig, map_floats(config.model, encode_float), LEDGER_FORMAT)
    assert back == config.model


def test_config_digest_stable_and_sensitive():
    config = make_run_config()
    header = make_run_header(config, ["p000"])
    assert config_digest(header) == config_digest(make_run_header(config, ["p000"]))
    other = make_run_config(model={"noise_variance": 2.0})
    assert config_digest(header) != config_digest(make_run_header(other, ["p000"]))


def test_default_intercept_default_is_one():
    config = make_run_config()
    assert config.imputation.default_for("intercept") == 1.0
    assert config.imputation.default_for("engagement") == 0.0


def test_injection_validation():
    with pytest.raises(ConfigurationError, match="policy_exception_prob"):
        make_run_config(injection={"policy_exception_prob": 1.5})


# One-field edits of a valid config, each with the message it must be
# refused with: a value of the wrong kind is never read, and nothing is
# left unchecked until a run needs it.
CONFIG_PROBES = [
    ({"imputation": {"defaults": {"intercept": "abc"}}},
     "imputation.defaults.intercept: expected a number, got 'abc'"),
    ({"imputation": {"defaults": {"intercept": "1.5"}}},
     "imputation.defaults.intercept: expected a number, got '1.5'"),
    ({"imputation": {"defaults": [1]}}, "imputation.defaults: expected an object, got [1]"),
    ({"tuning": {"prior_precision_scale": ["abc"]}},
     "tuning.prior_precision_scale[0]: expected a number, got 'abc'"),
    ({"tuning": {"seeds": ["abc"]}}, "tuning.seeds[0]: expected an integer, got 'abc'"),
    ({"tuning": [1, 2]}, "tuning: expected an object, got [1, 2]"),
    ({"grid": [1]}, "grid: expected an object, got [1]"),
    ({"schedule": "x"}, "schedule: expected an object, got 'x'"),
    ({"model": {"version_id": 7}}, "model.version_id: expected a string, got 7"),
    ({"features": {"baseline": "abc"}}, "features.baseline: expected a list, got 'abc'"),
    ({"version_switch": [1]}, "version_switch: expected an object, got [1]"),
    ({"version_switch": {"version_id": "v2"}}, "version_switch.day: missing"),
    ({"model": {"nosie_variance": 2.0}}, "model.nosie_variance: not a member"),
    ({"modle": {}}, "modle: not a member"),
    # A default the runtime could impute into a snapshot is finite.
    ({"imputation": {"defaults": {"engagement": float("nan")}}},
     "imputation: imputation.defaults.engagement must be finite, got nan"),
    ({"imputation": {"defaults": {"engagement": float("inf")}}},
     "imputation: imputation.defaults.engagement must be finite, got inf"),
    ({"imputation": {"defaults": {"engagement": float("-inf")}}},
     "imputation: imputation.defaults.engagement must be finite, got -inf"),
    # Two bad members: the first in field order.
    ({"model": {"version_id": 7, "noise_variance": "x"}},
     "model.noise_variance: expected a number, got 'x'"),
    # The grid's environments are built with the config, for every verb.
    ({"grid": {"miss_prob": [0.5, 2.0]}}, "grid: miss_prob must be in [0, 1]"),
    ({"grid": {"drift": []}}, "grid.drift: expected a non-empty list"),
]


@pytest.mark.parametrize("overrides, message", CONFIG_PROBES)
def test_config_probes_are_refused_with_their_path(overrides, message):
    with pytest.raises(ConfigurationError) as caught:
        make_run_config(**overrides)
    assert str(caught.value) == message


def test_config_holds_only_typed_values():
    config = make_run_config(
        model={"noise_variance": 2, "version_id": "v1.0.0"},
        environment={"drift": 1},
        tuning={"prior_precision_scale": [1, 0.5], "seeds": [4]},
    )
    assert type(config.model.noise_variance) is float
    assert type(config.environment.drift) is float
    assert config.tuning.prior_precision_scale == (1.0, 0.5)
    assert type(config.tuning.prior_precision_scale[0]) is float
    assert config.tuning.seeds == (4,)
    assert config.environments == (config.environment,)


def test_config_level_model_defaults():
    raw = {**BASE_CONFIG, "model": {"baseline_dim": 3, "treatment_dim": 3, "prior_mean": [0.0] * 6}}
    model = config_from_dict(raw).model
    assert (model.noise_variance, model.prior_precision_scale, model.version_id) == (1.0, 1.0, "v1.0.0")
    assert (model.clip_min, model.clip_max) == (0.1, 0.9)


def test_a_run_config_pickles_with_its_grid():
    # twin-run and twin-tune with --jobs ship the config to pool workers.
    config = make_run_config(grid={"drift": [0.0, 0.1], "miss_prob": [0.0, 0.5]})
    back = pickle.loads(pickle.dumps(config))
    assert back == config
    assert back.grid == config.grid and len(back.environments) == 4


# Every float of the environment, and the prior mean, one field at a time:
# NaN is false under every comparison, so only a finiteness check refuses it.
NON_FINITE_PROBES = [
    ({"environment": {"effect_sd": float("nan")}}, "environment: effect_sd must be finite, got nan"),
    ({"environment": {"baseline_sd": float("nan")}}, "environment: baseline_sd must be finite, got nan"),
    ({"environment": {"outcome_noise_sd": float("nan")}}, "environment: outcome_noise_sd must be finite, got nan"),
    ({"environment": {"engagement_noise_sd": float("inf")}},
     "environment: engagement_noise_sd must be finite, got inf"),
    ({"environment": {"drift": float("nan")}}, "environment: drift must be finite, got nan"),
    ({"environment": {"action_engagement_boost": float("-inf")}},
     "environment: action_engagement_boost must be finite, got -inf"),
    ({"environment": {"effect_mean": [0.5, float("nan"), 0.0]}}, "environment: effect_mean[1] must be finite, got nan"),
    ({"environment": {"baseline_mean": [float("inf"), 0.0, 0.0]}},
     "environment: baseline_mean[0] must be finite, got inf"),
    ({"model": {"prior_mean": [0.0, 0.0, float("nan"), 0.0, 0.0, 0.0]}}, "model: prior_mean[2] must be finite, got nan"),
]


@pytest.mark.parametrize("overrides, message", NON_FINITE_PROBES, ids=[
    "effect_sd", "baseline_sd", "outcome_noise_sd", "engagement_noise_sd", "drift", "action_engagement_boost",
    "effect_mean", "baseline_mean", "prior_mean",
])
def test_a_non_finite_environment_or_prior_float_is_refused(overrides, message):
    with pytest.raises(ConfigurationError) as caught:
        make_run_config(**overrides)
    assert str(caught.value) == message


def test_a_nan_environment_float_stops_simulate_before_any_ledger_exists(tmp_path, capsys):
    # It once made simulate exit 64 mid-run, leaving a ledger the audits accepted.
    raw = yaml.safe_load(EXAMPLE.read_text())
    raw["environment"]["effect_sd"] = float("nan")
    config = tmp_path / "nan.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / "trial.ndjson"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--participants", "2", "--days", "2"]) == 64
    assert capsys.readouterr().err == "config error: environment: effect_sd must be finite, got nan\n"
    assert not out.exists()


def _window_by_bisect(schedule: Schedule, ts: int) -> int:
    """Window j is (due_ts(j - 1), due_ts(j)]: the bisect over every due time."""
    if ts < schedule.trial_start_ts:
        return -1
    return bisect.bisect_left([schedule.due_ts(i) for i in range(schedule.total_points)], ts)


@st.composite
def schedules_and_times(draw):
    minutes = draw(st.lists(st.integers(0, 24 * 60 - 1), min_size=1, max_size=4, unique=True).map(sorted))
    update = draw(st.integers(0, 24 * 60 - 1).filter(lambda m: m not in minutes))
    schedule = Schedule(
        decision_times=tuple(f"{m // 60:02d}:{m % 60:02d}" for m in minutes),
        update_time=f"{update // 60:02d}:{update % 60:02d}",
        trial_days=draw(st.integers(1, 5)),
        trial_start_ts=draw(st.integers(-(10**12), 10**12)),
    )
    due = [schedule.due_ts(i) for i in range(schedule.total_points)]
    start, end = schedule.trial_start_ts, due[-1]
    ts = draw(st.one_of(
        st.integers(start - 3 * MS_PER_DAY, start - 1),  # before the start
        st.sampled_from(due),  # at a due time
        st.sampled_from(due).flatmap(lambda t: st.integers(t - MS_PER_DAY, t + MS_PER_DAY)),  # around one
        st.integers(end + 1, end + 3 * MS_PER_DAY),  # past the last point
        st.integers(start, end),
    ))
    return schedule, ts


@settings(max_examples=300, deadline=None)
@given(case=schedules_and_times())
def test_a_schedule_window_is_the_bisect_over_its_due_times(case):
    schedule, ts = case
    assert schedule.window(ts) == _window_by_bisect(schedule, ts)
