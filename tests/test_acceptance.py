"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""

import functools
import time

import numpy as np
import pytest
import yaml

from conftest import BASE_CONFIG, deep_merge, make_run_config, records_of
from ledgerloop import events
from ledgerloop.cli import main
from ledgerloop.errors import AuditError
from ledgerloop.ledger import encode_float, read_records, verify_chain
from ledgerloop.policy import (
    FeatureSnapshot,
    ModelConfig,
    PosteriorState,
    action_probability,
    decide,
    derive_decision_seed,
    update_posterior,
)
from ledgerloop.replay import default_logic, reconstruct_states, replay_verify
from ledgerloop.twin import EnvironmentSpec, run_trial

pytestmark = pytest.mark.acceptance


def criterion(number, name):
    # One line per criterion; run with -s (or -rA) to see them.
    def announce(verdict):
        print(f"[acceptance] criterion {number:2d} ({name}): {verdict}", flush=True)

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                announce("FAIL")
                raise
            announce("PASS")

        return wrapper

    return decorate


def full_scale_env(**overrides) -> EnvironmentSpec:
    base = dict(
        effect_mean=(0.6, 0.0, 0.0),
        baseline_mean=(0.2, 0.0, 0.0),
        effect_sd=0.0,
        baseline_sd=0.0,
        outcome_noise_sd=0.5,
        engagement_persistence=0.5,
        action_engagement_boost=0.2,
        engagement_noise_sd=0.05,
        miss_prob=0.0,
        delay_geometric_p=1.0,
        n_participants=20,
        n_days=28,
    )
    base.update(overrides)
    return EnvironmentSpec(**base)


def rand_snapshot(rng, d_g, d_h):
    g = tuple(float(v) for v in rng.normal(size=d_g))
    h = tuple(float(v) for v in rng.normal(size=d_h))
    n = d_g + d_h
    return FeatureSnapshot(
        baseline=g,
        treatment=h,
        provenance=("observed",) * n,
        imputation_methods=(None,) * n,
        source_device_ts=(0,) * n,
        assembled_ts=0,
    )


def rand_model(rng, d_g, d_h, noise):
    return ModelConfig(
        baseline_dim=d_g,
        treatment_dim=d_h,
        noise_variance=noise,
        prior_mean=tuple(float(v) for v in rng.normal(size=d_g + d_h)),
        prior_precision_scale=float(rng.uniform(0.25, 2.0)),
        version_id="vtest",
    )


def rand_pd_state(rng, mean, d, scale=1.0):
    a = rng.normal(size=(d, d))
    precision = a @ a.T + scale * d * np.eye(d)
    precision = (precision + precision.T) / 2.0
    return PosteriorState(mean, precision.ravel())


@criterion(1, "end-to-end replay exactness under failure injection")
def test_criterion_1_end_to_end_replay(tmp_path):
    started = time.monotonic()
    raw = deep_merge(
        BASE_CONFIG,
        {
            "master_seed": 20260401,
            "injection": {
                "policy_exception_prob": 0.01,
                "data_loss_prob": 0.02,
                "delay_geometric_p": 0.95,  # P(delay >= 1 window) = 0.05
            },
            "environment": {"n_participants": 20, "n_days": 28},
        },
    )
    config_path = tmp_path / "accept1.yaml"
    config_path.write_text(yaml.safe_dump(raw))
    ledger_path = tmp_path / "accept1.ndjson"
    assert main(["simulate", "--config", str(config_path), "--out", str(ledger_path)]) == 0

    decisions = records_of(ledger_path, "DECISION")
    assert len(decisions) == 20 * 28 * 2

    assert main(["replay-verify", "--ledger", str(ledger_path)]) == 0
    report = replay_verify(read_records(ledger_path), {"v1.0.0": default_logic()})
    assert report.exact
    assert report.first_divergent_seq is None
    assert not report.field_diffs

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"


@criterion(2, "conjugate update matches dense linear-solve oracle, rel 1e-10")
def test_criterion_2_conjugate_oracle():
    rng = np.random.default_rng(22)
    for _ in range(200):
        d_g = int(rng.integers(1, 5))
        d_h = int(rng.integers(1, 5))  # d = d_g + d_h <= 8
        d = d_g + d_h
        config = rand_model(rng, d_g, d_h, noise=float(rng.uniform(0.25, 4.0)))
        state = rand_pd_state(rng, rng.normal(size=d), d)
        batch = []
        for _ in range(int(rng.integers(1, 51))):
            batch.append(
                (rand_snapshot(rng, d_g, d_h), int(rng.integers(0, 2)), float(rng.normal()))
            )
        out = update_posterior(state, batch, config)

        # independent oracle: dense design-matrix algebra + LU solve
        X = np.array(
            [list(s.baseline) + [a * v for v in s.treatment] for s, a, _ in batch]
        )
        r = np.array([reward for _, _, reward in batch])
        inv_noise = 1.0 / config.noise_variance
        precision = np.reshape(state.precision, (d, d))
        precision_oracle = precision + inv_noise * X.T @ X
        mean_oracle = np.linalg.solve(
            precision_oracle, precision @ np.array(state.mean) + inv_noise * X.T @ r
        )
        assert np.allclose(np.reshape(out.precision, (d, d)), precision_oracle, rtol=1e-10, atol=1e-13)
        assert np.allclose(out.mean, mean_oracle, rtol=1e-10, atol=1e-13)


@criterion(3, "split-batch vs whole-batch agreement, rel 1e-9")
def test_criterion_3_batch_incremental_agreement():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        d_g = int(rng.integers(1, 4))
        d_h = int(rng.integers(1, 4))
        d = d_g + d_h
        config = rand_model(rng, d_g, d_h, noise=float(rng.uniform(0.5, 2.0)))
        state = rand_pd_state(rng, rng.normal(size=d), d)
        n = int(rng.integers(2, 17))
        batch = [
            (rand_snapshot(rng, d_g, d_h), int(rng.integers(0, 2)), float(rng.normal()))
            for _ in range(n)
        ]
        k = int(rng.integers(1, n))
        split = update_posterior(update_posterior(state, batch[:k], config), batch[k:], config)
        whole = update_posterior(state, batch, config)
        assert np.allclose(split.mean, whole.mean, rtol=1e-9, atol=1e-12)
        assert np.allclose(split.precision, whole.precision, rtol=1e-9, atol=1e-12)


@criterion(4, "Thompson probability matches 1e6-draw Monte Carlo within 0.005")
def test_criterion_4_thompson_calibration():
    rng = np.random.default_rng(44)
    n_draws = 1_000_000
    for _ in range(100):
        d_g = int(rng.integers(1, 4))
        d_h = int(rng.integers(1, 4))
        d = d_g + d_h
        config = ModelConfig(
            baseline_dim=d_g,
            treatment_dim=d_h,
            noise_variance=1.0,
            prior_mean=(0.0,) * d,
            prior_precision_scale=1.0,
            clip_min=0.01,
            clip_max=0.99,
            version_id="vtest",
        )
        mean = rng.normal(size=d) * 0.7
        state = rand_pd_state(rng, mean, d)
        h = rng.normal(size=d_h)
        snapshot = FeatureSnapshot(
            baseline=(0.0,) * d_g,
            treatment=tuple(float(v) for v in h),
            provenance=("observed",) * d,
            imputation_methods=(None,) * d,
            source_device_ts=(0,) * d,
            assembled_ts=0,
        )
        pi_raw, _ = action_probability(state, snapshot, config)

        # posterior-draw oracle: theta ~ N(mean, precision^-1) via Cholesky
        cov = np.linalg.inv(np.reshape(state.precision, (d, d)))
        cov = (cov + cov.T) / 2.0
        L = np.linalg.cholesky(cov)
        z = rng.standard_normal((n_draws, d))
        draws = z @ L.T + mean
        freq = float(np.mean(draws[:, d_g:] @ h > 0.0))
        assert abs(freq - pi_raw) < 0.005, f"pi_raw={pi_raw} mc={freq}"


@criterion(5, "seeded coin at pi=0.5 lands in [0.48, 0.52] over 10k decisions")
def test_criterion_5_randomization_fidelity():
    n = 10_000
    seeds = [derive_decision_seed(0, "calibration", i) for i in range(n)]
    assert len(set(seeds)) == n
    rate = sum(decide(0.5, seed) for seed in seeds) / n
    assert 0.48 <= rate <= 0.52, f"action-1 rate {rate}"


@criterion(6, "fallback totality: 100% injected exceptions, full coverage, pi bit-equal 0.5")
def test_criterion_6_fallback_totality(tmp_path):
    config = make_run_config(injection={"policy_exception_prob": 1.0})
    env = full_scale_env(n_participants=5, n_days=7)
    path = tmp_path / "fallback.ndjson"
    run_trial(env, config, 66, out_path=path).ledger.close()
    decisions = records_of(path, "DECISION")
    assert len(decisions) == 5 * 7 * 2  # coverage 1.0 by construction
    half = encode_float(0.5)
    for record in decisions:
        decision = events.parse_decision(record.payload)
        assert decision.fallback is True
        assert record.payload["pi"] == half
        assert decision.action == decide(0.5, decision.seed)
    report = replay_verify(read_records(path), {"v1.0.0": default_logic()})
    assert report.exact


@criterion(7, "learning sanity: bandit beats uniform and finds the effect sign, >=9/10 seeds")
def test_criterion_7_learning_sanity(tmp_path):
    # effect / noise = 0.6 / 0.5 >= 1, no heterogeneity
    env = full_scale_env()
    bandit_config = make_run_config()
    uniform_config = make_run_config(model={"clip_min": 0.5, "clip_max": 0.5})
    d_g = bandit_config.model.baseline_dim

    def mean_outcome(result):
        return float(np.mean([result.truth.outcomes[k] for k in sorted(result.truth.outcomes)]))

    wins = 0
    sign_hits = 0
    for seed in range(10):
        path = tmp_path / f"bandit{seed}.ndjson"
        bandit = run_trial(env, bandit_config, seed, out_path=path, candidate_label="bandit")
        bandit.ledger.close()
        uniform = run_trial(env, uniform_config, seed, candidate_label="uniform")
        if mean_outcome(bandit) > mean_outcome(uniform):
            wins += 1

        recon = reconstruct_states(read_records(path), {"v1.0.0": default_logic()})
        finals = [state.mean[d_g] for state in recon.states.values()]
        if float(np.mean(finals)) > 0.0:
            sign_hits += 1

    assert wins >= 9, f"bandit beat uniform in only {wins}/10 seeds"
    assert sign_hits >= 9, f"treatment-intercept sign correct in only {sign_hits}/10 seeds"


@criterion(8, "imputation snapshots preserved under late ground truth")
def test_criterion_8_imputation_preservation(tmp_path):
    # Manual fixture first: delayed datum arrives after its decision point.
    from conftest import make_runtime

    config = make_run_config()
    runtime = make_runtime(config, participants=("p0",), path=tmp_path / "manual.ndjson")
    runtime.start(backend_ts=0)
    snapshot = runtime.assemble_features("p0", 0)
    assert snapshot.provenance[5] == "default"  # engagement never arrived
    manual = tmp_path / "manual.ndjson"
    snap_seq = records_of(manual, "FEATURE_SNAPSHOT")[0].seq
    line_before = list(read_records(manual))[snap_seq].to_line()
    file_line_before = manual.read_bytes().splitlines()[snap_seq]

    late_seq = runtime.ingest_observation(
        "p0", "engagement", 0.9, device_ts=9 * 3_600_000 - 60_000, backend_ts=9 * 3_600_000 + 1
    )
    runtime.ledger.close()
    records = list(read_records(manual))
    late = records[late_seq]
    assert late.event_type == "DATA_INGESTED"
    assert late.payload.superseded_snapshot_seq == snap_seq

    assert records[snap_seq].to_line() == line_before
    file_line_after = manual.read_bytes().splitlines()[snap_seq]
    assert file_line_after == file_line_before

    # Full-trial version: delays injected, imputed snapshots exist, replay exact.
    config = make_run_config()
    env = full_scale_env(
        n_participants=4, n_days=5, delay_geometric_p=0.6, miss_prob=0.0
    )
    path = tmp_path / "late.ndjson"
    run_trial(env, config, 88, out_path=path).ledger.close()
    late_events = [
        r for r in records_of(path, "DATA_INGESTED")
        if r.payload["superseded_snapshot_seq"] is not None
    ]
    assert late_events, "delay injection produced no late arrivals"
    imputed = 0
    for record in records_of(path, "FEATURE_SNAPSHOT"):
        snap = events.parse_snapshot(record.payload)
        imputed += sum(1 for tag in snap.provenance if tag != "observed")
    assert imputed > 0
    report = replay_verify(read_records(path), {"v1.0.0": default_logic()})
    assert report.exact


@criterion(9, "version traceability: per-segment logic, audit error when missing")
def test_criterion_9_version_traceability(tmp_path):
    config = make_run_config(version_switch={"day": 14, "version_id": "v1.0.1"})
    env = full_scale_env(n_participants=5, n_days=28)
    path = tmp_path / "switch.ndjson"
    run_trial(env, config, 99, out_path=path).ledger.close()

    switch_seq = next(
        r.seq
        for r in records_of(path, "VERSION_CHANGE")
        if r.payload["version_id"] == "v1.0.1"
    )
    for record in read_records(path):
        expected = "v1.0.0" if record.seq < switch_seq else "v1.0.1"
        assert record.version_id == expected
    versions_on_decisions = {
        events.parse_decision(r.payload).version_id
        for r in records_of(path, "DECISION")
    }
    assert versions_on_decisions == {"v1.0.0", "v1.0.1"}

    both = {"v1.0.0": default_logic(), "v1.0.1": default_logic()}
    report = replay_verify(read_records(path), both)
    assert report.exact

    with pytest.raises(AuditError, match="v1.0.1"):
        replay_verify(read_records(path), {"v1.0.0": default_logic()})


@criterion(10, "tamper evidence: 1000 single-byte corruptions all detected")
def test_criterion_10_tamper_evidence(tmp_path):
    config = make_run_config()
    path = tmp_path / "tamper.ndjson"
    run_trial(full_scale_env(n_participants=2, n_days=3), config, 10, out_path=path).ledger.close()
    original = path.read_bytes()
    assert verify_chain(path) is None

    line_starts = []
    pos = 0
    for line in original.splitlines(keepends=True):
        line_starts.append(pos)
        pos += len(line)

    rng = np.random.default_rng(1010)
    mutated_path = tmp_path / "mutated.ndjson"
    detected = 0
    for _ in range(1000):
        i = int(rng.integers(0, len(original)))
        new = int(rng.integers(0, 256))
        if new == original[i]:
            new = (new + 1) % 256
        mutated_path.write_bytes(original[:i] + bytes([new]) + original[i + 1:])
        corrupted_line = sum(1 for s in line_starts if s <= i) - 1

        bad = verify_chain(mutated_path)
        if bad is not None:
            assert bad <= corrupted_line
            detected += 1
            continue
        # chain intact: the verifiers must catch it instead
        from ledgerloop.errors import LedgerLoopError

        try:
            report = replay_verify(read_records(mutated_path), {"v1.0.0": default_logic()})
        except LedgerLoopError:
            detected += 1
            continue
        assert not report.exact
        assert report.first_divergent_seq <= corrupted_line
        detected += 1
    assert detected == 1000


@criterion(11, "design reproducibility: twin-tune is byte-identical across runs")
def test_criterion_11_design_reproducibility(tmp_path):
    raw = deep_merge(
        BASE_CONFIG,
        {
            "master_seed": 1111,
            "grid": {"effect_mean": [[0.0, 0.0, 0.0], [0.6, 0.0, 0.0]]},
            "tuning": {
                "prior_precision_scale": [0.5, 1.0],
                "noise_variance": [1.0],
                "seeds": [1, 2],
            },
            "environment": {"n_participants": 2, "n_days": 3},
        },
    )
    config_path = tmp_path / "tune.yaml"
    config_path.write_text(yaml.safe_dump(raw))
    out1 = tmp_path / "rank1.txt"
    out2 = tmp_path / "rank2.txt"
    assert main(["twin-tune", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["twin-tune", "--config", str(config_path), "--out", str(out2)]) == 0
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    assert data1.startswith(b"# ledgerloop tuning report v1\n")
    assert b'"rank":0' in data1
