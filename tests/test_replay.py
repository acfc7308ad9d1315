import copy
import math
import struct
from pathlib import Path

import pytest

from conftest import make_run_config, records_of
from ledgerloop import events, policy
from ledgerloop.errors import AuditError, StructuralAuditError
from ledgerloop.ledger import Ledger, encode_float, verify_chain
from ledgerloop.replay import (
    V1_FINGERPRINT,
    default_logic,
    merge_reports,
    reconstruct_states,
    replay_verify,
    verify_decisions,
    verify_updates,
)
from ledgerloop.twin import EnvironmentSpec, run_trial


def small_env(**overrides) -> EnvironmentSpec:
    base = dict(
        effect_mean=(0.5, 0.0, 0.0),
        baseline_mean=(0.2, 0.0, 0.0),
        outcome_noise_sd=0.5,
        engagement_noise_sd=0.05,
        n_participants=2,
        n_days=3,
    )
    base.update(overrides)
    return EnvironmentSpec(**base)


def healthy_trial(seed=7, **env_overrides):
    config = make_run_config()
    return run_trial(small_env(**env_overrides), config, seed)


def logic_for(ledger):
    return {record_version: default_logic() for record_version in
            {r.version_id for r in ledger.records()}}


def rechain(ledger: Ledger, mutate=None) -> Ledger:
    """Rebuild a ledger re-deriving the hash chain, optionally mutating
    payloads: mutate(seq, event_type, payload) -> payload. This simulates a
    tamperer smart enough to fix the chain, which only the verifiers catch."""
    out = Ledger(stream_id=ledger.stream_id, environment_profile=ledger.environment_profile)
    for record in ledger.records():
        payload = copy.deepcopy(record.payload)
        if mutate is not None:
            payload = mutate(record.seq, record.event_type, payload) or payload
        out.append(
            record.event_type,
            payload,
            backend_ts=record.backend_ts,
            version_id=record.version_id,
            device_ts=record.device_ts,
        )
    return out


def flip_low_mantissa_bit(hex_str: str) -> str:
    bits = struct.unpack(">Q", bytes.fromhex(hex_str))[0] ^ 1
    return struct.pack(">Q", bits).hex()


# -- reconstruction ------------------------------------------------------------------


def test_reconstruct_no_updates_gives_initial_states():
    config = make_run_config()
    # One day, updates happen at 23:00 but outcomes arrive afterwards only if
    # delayed; with no outcome ever (miss everything) there are no updates.
    result = run_trial(small_env(miss_prob=1.0, n_days=1), config, 1)
    recon = reconstruct_states(result.ledger, logic_for(result.ledger))
    assert not recon.updates
    for pid, timeline in recon.states.items():
        assert len(timeline) == 1
        state = timeline[0][1]
        assert state.update_count == 0


def test_final_state_hash_matches_last_update():
    result = healthy_trial()
    recon = reconstruct_states(result.ledger, logic_for(result.ledger))
    last_updates = {}
    for record in records_of(result.ledger, "MODEL_UPDATE"):
        info = events.parse_update(record.payload)
        last_updates[info.participant_id] = info
    assert last_updates
    for pid, info in last_updates.items():
        final_state = recon.states[pid][-1][1]
        assert final_state.state_hash == info.post_state_hash


def test_unregistered_version_is_audit_error():
    result = healthy_trial()
    with pytest.raises(AuditError, match="v1.0.0"):
        reconstruct_states(result.ledger, {"v9.9.9": default_logic()})


def test_a_logic_given_for_another_fingerprint_is_audit_error():
    # The v1 fixture's versions record v1's fingerprint; v2 may not replay them.
    fixture = Path(__file__).resolve().parent / "fixtures" / "v1-golden.ndjson"
    index = events.StreamIndex.fold(Ledger.open(fixture).records())
    with pytest.raises(AuditError, match=f"records fingerprint {V1_FINGERPRINT}, not that of conjugate-linear-v2"):
        reconstruct_states(index, {"v1.0.0": default_logic(), "v1.1.0": default_logic()})


def test_v2_is_refused_where_it_misses_its_known_answers(monkeypatch):
    exact = policy.update_posterior

    def one_ulp_off(*args, **kwargs):
        state = exact(*args, **kwargs)
        mean = [math.nextafter(state.mean[0], math.inf), *state.mean[1:]]
        return policy.PosteriorState(mean, state.precision, state.update_count, state.last_update_seq)

    monkeypatch.setattr(policy, "update_posterior", one_ulp_off)
    with pytest.raises(AuditError, match="known answers"):
        default_logic()


def test_reconstruction_requires_header():
    ledger = Ledger(stream_id="s", environment_profile="test")
    ledger.append("ERROR", {"kind": "k", "message": "m", "participant_id": None, "decision_index": None}, backend_ts=0, version_id="v1")
    with pytest.raises(StructuralAuditError):
        reconstruct_states(ledger, {"v1": default_logic()})


# -- verify_decisions ------------------------------------------------------------------


def test_untampered_ledger_is_exact():
    result = healthy_trial()
    report = replay_verify(result.ledger, logic_for(result.ledger))
    assert report.exact
    assert report.first_divergent_seq is None
    assert report.counts["decisions_checked"] == 12
    assert not report.field_diffs


def test_flipped_pi_bit_detected_with_field():
    result = healthy_trial()

    decision_seqs = [r.seq for r in records_of(result.ledger, "DECISION")]
    target = decision_seqs[3]

    def mutate(seq, etype, payload):
        if seq == target:
            payload["pi"] = flip_low_mantissa_bit(payload["pi"])
        return payload

    tampered = rechain(result.ledger, mutate)
    assert verify_chain(tampered) is None  # chain is consistent; content lies
    recon = reconstruct_states(tampered, logic_for(tampered))
    report = verify_decisions(recon)
    assert not report.exact
    assert report.first_divergent_seq == target
    assert any(d.path == "pi" and d.seq == target for d in report.field_diffs)


def test_flipped_action_detected():
    result = healthy_trial()
    decision_records = list(records_of(result.ledger, "DECISION"))
    target = decision_records[0].seq
    original_action = decision_records[0].payload["action"]

    def mutate(seq, etype, payload):
        if seq == target:
            payload["action"] = 1 - payload["action"]
        return payload

    tampered = rechain(result.ledger, mutate)
    recon = reconstruct_states(tampered, logic_for(tampered))
    report = verify_decisions(recon)
    assert not report.exact
    diffs = {d.path for d in report.field_diffs if d.seq == target}
    assert "action" in diffs
    # independent oracle: the decide rule applied to (pi, seed) must give the original
    decision = events.parse_decision(decision_records[0].payload)
    assert default_logic().decide(decision.pi, decision.seed) == original_action


def test_tampered_seed_detected():
    result = healthy_trial()
    target = next(r.seq for r in records_of(result.ledger, "DECISION"))

    def mutate(seq, etype, payload):
        if seq == target:
            payload["seed"] = payload["seed"] ^ 1
        return payload

    tampered = rechain(result.ledger, mutate)
    recon = reconstruct_states(tampered, logic_for(tampered))
    report = verify_decisions(recon)
    assert any(d.path == "seed" for d in report.field_diffs)


def test_fallback_decisions_checked_against_uniform_rule():
    config = make_run_config(injection={"policy_exception_prob": 1.0})
    result = run_trial(small_env(), config, 3)
    report = replay_verify(result.ledger, logic_for(result.ledger))
    assert report.exact

    decision_seqs = [r.seq for r in records_of(result.ledger, "DECISION")]
    target = decision_seqs[0]

    def mutate(seq, etype, payload):
        if seq == target:
            payload["pi"] = encode_float(0.75)  # fallback must be exactly 0.5
        return payload

    tampered = rechain(result.ledger, mutate)
    recon = reconstruct_states(tampered, logic_for(tampered))
    report = verify_decisions(recon)
    assert any(d.path == "pi" and d.seq == target for d in report.field_diffs)


def test_missing_snapshot_is_structural_error():
    result = healthy_trial()
    out = Ledger(stream_id=result.ledger.stream_id, environment_profile="test")
    for record in result.ledger.records():
        if record.event_type == "FEATURE_SNAPSHOT":
            continue
        out.append(
            record.event_type,
            copy.deepcopy(record.payload),
            backend_ts=record.backend_ts,
            version_id=record.version_id,
            device_ts=record.device_ts,
        )
    with pytest.raises(StructuralAuditError):
        replay_verify(out, logic_for(out))


# -- verify_updates ---------------------------------------------------------------------


def test_perturbed_post_state_detected():
    result = healthy_trial()
    update_seqs = [r.seq for r in records_of(result.ledger, "MODEL_UPDATE")]
    target = update_seqs[0]

    def mutate(seq, etype, payload):
        if seq == target:
            raw = bytearray(bytes.fromhex(payload["post_state"]))
            mean0 = struct.unpack(">d", raw[:8])[0]
            raw[:8] = struct.pack(">d", mean0 + 1e-15)
            payload["post_state"] = raw.hex()
        return payload

    tampered = rechain(result.ledger, mutate)
    recon = reconstruct_states(tampered, logic_for(tampered))
    report = verify_updates(recon)
    assert not report.exact
    assert report.first_divergent_seq == target
    paths = {d.path for d in report.field_diffs}
    assert "post_state" in paths


def test_batch_seq_pointing_at_decision_is_structural_error():
    result = healthy_trial()
    decision_seq = next(r.seq for r in records_of(result.ledger, "DECISION"))

    def mutate(seq, etype, payload):
        if etype == "MODEL_UPDATE":
            payload["batch_seqs"] = [decision_seq]
        return payload

    tampered = rechain(result.ledger, mutate)
    with pytest.raises(StructuralAuditError):
        reconstruct_states(tampered, logic_for(tampered))


def test_double_consumption_is_structural_error():
    result = healthy_trial()
    first_batch = {}

    def mutate(seq, etype, payload):
        if etype == "MODEL_UPDATE":
            pid = payload["participant_id"]
            if pid in first_batch:
                payload["batch_seqs"] = first_batch[pid]
            else:
                first_batch[pid] = payload["batch_seqs"]
        return payload

    tampered = rechain(result.ledger, mutate)
    with pytest.raises(StructuralAuditError, match="consumed twice"):
        reconstruct_states(tampered, logic_for(tampered))


# -- end-to-end soundness ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "injection",
    [
        {},
        {"policy_exception_prob": 0.3},
        {"data_loss_prob": 0.2, "delay_geometric_p": 0.7},
    ],
)
def test_replay_soundness_across_seeds_and_injection(seed, injection):
    config = make_run_config(injection=injection)
    result = run_trial(small_env(), config, seed)
    report = replay_verify(result.ledger, logic_for(result.ledger))
    assert report.exact, report.field_diffs[:3]


def test_replay_never_appends():
    result = healthy_trial()
    before = len(result.ledger)
    replay_verify(result.ledger, logic_for(result.ledger))
    assert len(result.ledger) == before


def test_divergence_report_bytes():
    result = healthy_trial()
    report = replay_verify(result.ledger, logic_for(result.ledger))
    data = report.to_bytes()
    assert data.startswith(b"# ledgerloop divergence report v1\n")
    assert b'"status":"exact"' in data


def test_merge_reports_combines_diffs():
    result = healthy_trial()
    r1 = replay_verify(result.ledger, logic_for(result.ledger))
    merged = merge_reports(r1, r1)
    assert merged.exact
