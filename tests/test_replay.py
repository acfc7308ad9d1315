import dataclasses
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import conftest
from conftest import make_run_config, make_runtime, records_of
from ledgerloop import events, policy
from ledgerloop.cli import main
from ledgerloop.errors import AuditError, NumericalStateError, StructuralAuditError
from ledgerloop.ledger import Ledger, encode_float, map_floats, read_records, verify_chain
from ledgerloop.replay import (
    V1_FINGERPRINT,
    default_logic,
    merge_reports,
    reconstruct_states,
    replay_verify,
    verify_decisions,
    verify_updates,
)
from ledgerloop.runtime import MS_PER_DAY
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


def trial_file(tmp_path, config=None, seed=7, **env_overrides) -> Path:
    """The ledger file of one small trial, written under ``tmp_path``."""
    path = tmp_path / "trial.ndjson"
    run_trial(small_env(**env_overrides), config or make_run_config(), seed, out_path=path).ledger.close()
    return path


def logic_for(path):
    """The default logic for every version a record of the ledger at ``path`` is stamped with."""
    return {record.version_id: default_logic() for record in read_records(path)}


def rechain(path: Path, mutate=None, skip=()) -> Path:
    """A copy of a ledger file with its hash chain re-derived, leaving out
    the records of the event types in ``skip`` and optionally mutating
    payloads: mutate(seq, event_type, payload) -> payload, on the payload dict
    as it is stored. This simulates a tamperer smart enough to fix the chain,
    which only the verifiers catch."""
    out_path = path.with_name("rechained.ndjson")
    first = next(read_records(path))
    with Ledger(first.stream_id, first.environment_profile, path=out_path, fsync=False) as out:
        for record in read_records(path):
            if record.event_type in skip:
                continue
            value = record.payload
            if mutate is not None:
                payload = map_floats(value, encode_float)
                payload = mutate(record.seq, record.event_type, payload) or payload
                value = events.decode_payload(record.event_type, payload)
            out.append(
                value,
                backend_ts=record.backend_ts,
                version_id=record.version_id,
                device_ts=record.device_ts,
            )
    return out_path


def flip_low_mantissa_bit(hex_str: str) -> str:
    bits = struct.unpack(">Q", bytes.fromhex(hex_str))[0] ^ 1
    return struct.pack(">Q", bits).hex()


# -- reconstruction ------------------------------------------------------------------


def test_reconstruct_no_updates_gives_initial_states(tmp_path):
    # One day, updates happen at 23:00 but outcomes arrive afterwards only if
    # delayed; with no outcome ever (miss everything) there are no updates.
    path = trial_file(tmp_path, seed=1, miss_prob=1.0, n_days=1)
    recon = reconstruct_states(read_records(path), logic_for(path))
    assert recon.updates.counts["updates_checked"] == 0
    for pid, state in recon.states.items():
        assert state.update_count == 0


def test_final_state_hash_matches_last_update(tmp_path):
    path = trial_file(tmp_path)
    recon = reconstruct_states(read_records(path), logic_for(path))
    last_updates = {record.payload.participant_id: record.payload
                    for record in read_records(path) if record.event_type == "MODEL_UPDATE"}
    assert last_updates
    for pid, info in last_updates.items():
        assert recon.states[pid].state_hash == info.post_state_hash


def test_final_states_are_the_runtimes(tmp_path):
    # Three days of two participants, with a version switch on day 2,
    # injected fallbacks, data that arrives after its snapshot, and one
    # update the logic refuses: its outcomes stay pending for the next cycle.
    config = make_run_config(injection={"policy_exception_prob": 0.3})
    runtime = make_runtime(config, path=tmp_path / "trial.ndjson")
    refusals = []

    def refuse_once(state, batch, *args, **kwargs):
        if not refusals:
            refusals.append(len(batch))
            raise NumericalStateError("refused once")
        return policy.update_posterior(state, batch, *args, **kwargs)

    runtime.logic = dataclasses.replace(runtime.logic, update_posterior=refuse_once)
    runtime.start(backend_ts=0)
    fallbacks = 0
    for day in range(3):
        if day == 2:
            runtime.register_version("v1.1.0", backend_ts=day * MS_PER_DAY)
        for idx, due in runtime.header.schedule.decision_points(day):
            for k, pid in enumerate(runtime.header.participants):
                runtime.ingest_observation(pid, "engagement", 0.25 * (idx + k), due - 60_000, backend_ts=due - 60_000)
                runtime.assemble_features(pid, idx, backend_ts=due)
                # The prior outcome of this point arrives only after its snapshot.
                runtime.ingest_observation(pid, "prior_outcome", 0.5 - k, due - 1000, backend_ts=due + 1)
                fallbacks += runtime.make_decision(pid, idx, backend_ts=due + 2).fallback
                runtime.ingest_outcome(pid, idx, 0.1 * idx - k, due + 3, backend_ts=due + 3)
        for pid in runtime.header.participants:
            runtime.run_update_cycle(pid, backend_ts=runtime.header.schedule.update_ts(day))
    runtime.ledger.close()
    assert refusals and fallbacks
    path = tmp_path / "trial.ndjson"
    errors = [record.payload.kind for record in read_records(path) if record.event_type == "ERROR"]
    assert errors.count("update_failure") == 1

    recon = reconstruct_states(read_records(path))
    assert recon.states.keys() == runtime.states.keys()
    for pid, state in runtime.states.items():
        assert state.update_count > 0
        assert recon.states[pid].state_hash == state.state_hash
    assert replay_verify(read_records(path)).exact


def test_unregistered_version_is_audit_error(tmp_path):
    path = trial_file(tmp_path)
    with pytest.raises(AuditError, match="v1.0.0"):
        reconstruct_states(read_records(path), {"v9.9.9": default_logic()})


def test_a_logic_given_for_another_fingerprint_is_audit_error():
    # The v1 fixture's versions record v1's fingerprint; v2 may not replay them.
    fixture = Path(__file__).resolve().parent / "fixtures" / "v1-golden.ndjson"
    with pytest.raises(AuditError, match=f"records fingerprint {V1_FINGERPRINT}, not that of conjugate-linear-v2"):
        reconstruct_states(read_records(fixture), {"v1.0.0": default_logic(), "v1.1.0": default_logic()})


def test_v2_is_refused_where_it_misses_its_known_answers(monkeypatch):
    exact = policy.update_posterior

    def one_ulp_off(*args, **kwargs):
        state = exact(*args, **kwargs)
        mean = [math.nextafter(state.mean[0], math.inf), *state.mean[1:]]
        return policy.PosteriorState(mean, state.precision, state.update_count, state.last_update_seq)

    monkeypatch.setattr(policy, "update_posterior", one_ulp_off)
    with pytest.raises(AuditError, match="known answers"):
        default_logic()


def test_reconstruction_requires_header(tmp_path):
    path = tmp_path / "headless.ndjson"
    with Ledger(stream_id="s", environment_profile="test", path=path, fsync=False) as ledger:
        ledger.append(events.ErrorInfo("k", "m"), backend_ts=0, version_id="v1")
    with pytest.raises(StructuralAuditError):
        reconstruct_states(read_records(path), {"v1": default_logic()})


# -- verify_decisions ------------------------------------------------------------------


def test_untampered_ledger_is_exact(tmp_path):
    path = trial_file(tmp_path)
    report = replay_verify(read_records(path), logic_for(path))
    assert report.exact
    assert report.first_divergent_seq is None
    assert report.counts["decisions_checked"] == 12
    assert not report.field_diffs


def test_flipped_pi_bit_detected_with_field(tmp_path):
    path = trial_file(tmp_path)

    decision_seqs = [r.seq for r in records_of(path, "DECISION")]
    target = decision_seqs[3]

    def mutate(seq, etype, payload):
        if seq == target:
            payload["pi"] = flip_low_mantissa_bit(payload["pi"])
        return payload

    tampered = rechain(path, mutate)
    assert verify_chain(tampered) is None  # chain is consistent; content lies
    recon = reconstruct_states(read_records(tampered), logic_for(tampered))
    report = verify_decisions(recon)
    assert not report.exact
    assert report.first_divergent_seq == target
    assert any(d.path == "pi" and d.seq == target for d in report.field_diffs)


def test_flipped_action_detected(tmp_path):
    path = trial_file(tmp_path)
    decision_records = records_of(path, "DECISION")
    target = decision_records[0].seq
    original_action = decision_records[0].payload["action"]

    def mutate(seq, etype, payload):
        if seq == target:
            payload["action"] = 1 - payload["action"]
        return payload

    tampered = rechain(path, mutate)
    recon = reconstruct_states(read_records(tampered), logic_for(tampered))
    report = verify_decisions(recon)
    assert not report.exact
    diffs = {d.path for d in report.field_diffs if d.seq == target}
    assert "action" in diffs
    # independent oracle: the decide rule applied to (pi, seed) must give the original
    decision = events.parse_decision(decision_records[0].payload)
    assert policy.decide(decision.pi, decision.seed) == original_action


def test_tampered_seed_detected(tmp_path):
    path = trial_file(tmp_path)
    target = records_of(path, "DECISION")[0].seq

    def mutate(seq, etype, payload):
        if seq == target:
            payload["seed"] = payload["seed"] ^ 1
        return payload

    tampered = rechain(path, mutate)
    recon = reconstruct_states(read_records(tampered), logic_for(tampered))
    report = verify_decisions(recon)
    assert any(d.path == "seed" for d in report.field_diffs)


def test_fallback_decisions_checked_against_uniform_rule(tmp_path):
    config = make_run_config(injection={"policy_exception_prob": 1.0})
    path = trial_file(tmp_path, config, seed=3)
    report = replay_verify(read_records(path), logic_for(path))
    assert report.exact

    decision_seqs = [r.seq for r in records_of(path, "DECISION")]
    target = decision_seqs[0]

    def mutate(seq, etype, payload):
        if seq == target:
            payload["pi"] = encode_float(0.75)  # fallback must be exactly 0.5
        return payload

    tampered = rechain(path, mutate)
    recon = reconstruct_states(read_records(tampered), logic_for(tampered))
    report = verify_decisions(recon)
    assert any(d.path == "pi" and d.seq == target for d in report.field_diffs)


def _stamp(record):
    record["version_id"] = "v1.0.1"


def _carry(record):
    record["payload"]["version_id"] = "v1.0.1"


def _fails(*args, **kwargs):
    raise ZeroDivisionError("not a LedgerLoopError")


# What replay records where it cannot reproduce a decision or an update of a
# trial that activates v1.0.1 on day 1: each case edits the first DECISION
# record (or none) and may give every version a logic one of whose functions
# raises. Each: (edit, the function that raises, the report, the path of the
# first diff, its logged value given the record's payload, its recomputed one).
REPLAY_DIFFS = {
    "decision-stamped-with-a-later-version": (_stamp, None, "decisions", "version_id", "v1.0.0", "v1.0.0"),
    "decision-carrying-a-later-version": (_carry, None, "decisions", "version_id", "v1.0.1", "v1.0.0"),
    "decision-logic-raises": (
        None, "action_probability", "decisions", "pi_raw", lambda p: p["pi_raw"], "error:ZeroDivisionError",
    ),
    "update-logic-raises": (
        None, "update_posterior", "updates", "post_state", lambda p: p["post_state"], "error:ZeroDivisionError",
    ),
}


@pytest.mark.parametrize("case", REPLAY_DIFFS)
def test_what_replay_cannot_reproduce_is_a_diff_at_its_seq(tmp_path, case):
    edit, raising, report, path, logged, recomputed = REPLAY_DIFFS[case]
    switched = make_run_config(version_switch={"day": 1, "version_id": "v1.0.1"})
    ledger_path = trial_file(tmp_path, switched, n_days=2)
    event_type = "DECISION" if report == "decisions" else "MODEL_UPDATE"
    first = records_of(ledger_path, event_type)
    if event_type == "DECISION":
        first = [r for r in first if not r.payload["fallback"]]
    seq = first[0].seq
    if edit is not None:
        conftest.rechain(ledger_path, seq, edit)
    logic = default_logic()
    if raising is not None:
        logic = dataclasses.replace(logic, **{raising: _fails})
    recon = reconstruct_states(read_records(ledger_path), {"v1.0.0": logic, "v1.0.1": logic})
    diffs = getattr(recon, report).field_diffs
    logged = logged(first[0].payload) if callable(logged) else logged
    assert (diffs[0].seq, diffs[0].path, diffs[0].logged, diffs[0].recomputed) == (seq, path, logged, recomputed)
    assert recon.report().first_divergent_seq == seq


def v1_with_an_infinite_treatment(tmp_path) -> Path:
    """A copy of the v1 fixture whose snapshot at seq 10, that of the first
    decision (seq 11) that is not a fallback, holds an infinite treatment[1]."""
    pytest.importorskip("scipy")
    ledger_path = tmp_path / "v1.ndjson"
    shutil.copyfile(Path(__file__).resolve().parent / "fixtures" / "v1-golden.ndjson", ledger_path)
    assert [r.seq for r in records_of(ledger_path, "DECISION") if not r.payload["fallback"]][0] == 11

    def infinite(record):
        record["payload"]["treatment"][1] = "7ff0000000000000"

    conftest.rechain(ledger_path, 10, infinite)
    return ledger_path


def test_a_v1_logic_that_raises_is_a_divergence_not_a_traceback(tmp_path, capsys):
    # v1 solves with scipy, whose finiteness check raises ValueError, not a
    # LedgerLoopError, for an infinite treatment entry. Replay records it as
    # it records any failure of a logic, as the runtime would have fallen back.
    ledger_path = v1_with_an_infinite_treatment(tmp_path)
    out = tmp_path / "divergence.txt"
    assert main(["replay-verify", "--ledger", str(ledger_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("replay diverged: first_divergent_seq=11 (") and len(err.splitlines()) == 1
    assert b'"path":"pi_raw","recomputed":"error:ValueError","seq":11' in out.read_bytes()


def test_a_v1_logic_that_raises_prints_only_the_verdict(tmp_path):
    # In a fresh process, where nothing captures warnings, numpy's
    # floating-point warnings on the infinite entry would reach stderr too.
    ledger_path = v1_with_an_infinite_treatment(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ledgerloop.cli", "replay-verify", "--ledger", str(ledger_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("replay diverged: first_divergent_seq=11 (")
    assert len(done.stderr.splitlines()) == 1, done.stderr


def test_missing_snapshot_is_structural_error(tmp_path):
    tampered = rechain(trial_file(tmp_path), skip={"FEATURE_SNAPSHOT"})
    with pytest.raises(StructuralAuditError):
        replay_verify(read_records(tampered), logic_for(tampered))


# -- verify_updates ---------------------------------------------------------------------


def test_perturbed_post_state_detected(tmp_path):
    path = trial_file(tmp_path)
    update_seqs = [r.seq for r in records_of(path, "MODEL_UPDATE")]
    target = update_seqs[0]

    def mutate(seq, etype, payload):
        if seq == target:
            raw = bytearray(bytes.fromhex(payload["post_state"]))
            mean0 = struct.unpack(">d", raw[:8])[0]
            raw[:8] = struct.pack(">d", mean0 + 1e-15)
            payload["post_state"] = raw.hex()
        return payload

    tampered = rechain(path, mutate)
    recon = reconstruct_states(read_records(tampered), logic_for(tampered))
    report = verify_updates(recon)
    assert not report.exact
    assert report.first_divergent_seq == target
    paths = {d.path for d in report.field_diffs}
    assert "post_state" in paths


def test_batch_seq_pointing_at_decision_is_structural_error(tmp_path):
    path = trial_file(tmp_path)
    decision_seq = records_of(path, "DECISION")[0].seq

    def mutate(seq, etype, payload):
        if etype == "MODEL_UPDATE":
            payload["batch_seqs"] = [decision_seq]
        return payload

    tampered = rechain(path, mutate)
    with pytest.raises(StructuralAuditError):
        reconstruct_states(read_records(tampered), logic_for(tampered))


def test_double_consumption_is_structural_error(tmp_path):
    path = trial_file(tmp_path)
    first_batch = {}

    def mutate(seq, etype, payload):
        if etype == "MODEL_UPDATE":
            pid = payload["participant_id"]
            if pid in first_batch:
                payload["batch_seqs"] = first_batch[pid]
            else:
                first_batch[pid] = payload["batch_seqs"]
        return payload

    tampered = rechain(path, mutate)
    with pytest.raises(StructuralAuditError, match="consumed twice"):
        reconstruct_states(read_records(tampered), logic_for(tampered))


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
def test_replay_soundness_across_seeds_and_injection(tmp_path, seed, injection):
    path = trial_file(tmp_path, make_run_config(injection=injection), seed)
    report = replay_verify(read_records(path), logic_for(path))
    assert report.exact, report.field_diffs[:3]


def test_replay_never_appends(tmp_path):
    path = trial_file(tmp_path)
    before = path.read_bytes()
    replay_verify(read_records(path), logic_for(path))
    assert path.read_bytes() == before


def test_divergence_report_bytes(tmp_path):
    path = trial_file(tmp_path)
    report = replay_verify(read_records(path), logic_for(path))
    data = report.to_bytes()
    assert data.startswith(b"# ledgerloop divergence report v1\n")
    assert b'"status":"exact"' in data


def test_merge_reports_combines_diffs(tmp_path):
    path = trial_file(tmp_path)
    r1 = replay_verify(read_records(path), logic_for(path))
    merged = merge_reports(r1, r1)
    assert merged.exact
