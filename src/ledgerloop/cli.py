"""Command-line entry point.

Verbs: simulate, twin-run, twin-tune, replay-verify, monitor-report,
ledger-inspect. The config file is the single source of parameters; flags
only override scalars. Exit codes: 0 ok, 1 divergence, 2 audit error,
64 invalid config/usage, 74 storage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import yaml

from . import twin
from .config import load_config
from .errors import (
    AuditError,
    ConfigurationError,
    DecodeError,
    LedgerLoopError,
    StorageError,
)
from .ledger import Ledger, decode_float, read_records
from .monitor import DEFAULT_RULES, AlertRule, compute_metrics, emit_report, evaluate_alerts
from .replay import default_logic, replay_verify
from .runtime import FailureInjectionSpec

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_AUDIT = 2
EXIT_CONFIG = 64
EXIT_STORAGE = 74


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgerloop",
        description="Simulate, audit, and monitor replayable online decision-making trials.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    simulate = sub.add_parser("simulate", help="run one trial and write its ledger")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", required=True, help="ledger file to create")
    simulate.add_argument("--seed", type=int, default=None, help="override master_seed")
    simulate.add_argument("--participants", type=int, default=None)
    simulate.add_argument("--days", type=int, default=None)
    simulate.add_argument("--inject", default=None, help="k=v[,k=v...] failure injection overrides")
    simulate.add_argument("--fsync", action="store_true", help="fsync every append")

    twin_run = sub.add_parser("twin-run", help="evaluate the candidate across the environment grid")
    twin_run.add_argument("--config", required=True)
    twin_run.add_argument("--out", required=True, help="evaluation report file to create")
    twin_run.add_argument("--seed", type=int, default=None)
    twin_run.add_argument("--jobs", type=int, default=1)

    twin_tune = sub.add_parser("twin-tune", help="rank tuning candidates across environments")
    twin_tune.add_argument("--config", required=True)
    twin_tune.add_argument("--out", required=True, help="ranked report file to create")
    twin_tune.add_argument("--seed", type=int, default=None)
    twin_tune.add_argument("--jobs", type=int, default=1)

    replay_cmd = sub.add_parser("replay-verify", help="audit a ledger for bit-exact replayability")
    replay_cmd.add_argument("--ledger", required=True)
    replay_cmd.add_argument("--out", default=None, help="optional divergence report file")
    replay_cmd.add_argument(
        "--versions",
        default=None,
        help="comma-separated version ids with registered logic (default: all in ledger)",
    )

    monitor_cmd = sub.add_parser("monitor-report", help="compute metrics, alerts, and a report")
    monitor_cmd.add_argument("--ledger", required=True)
    monitor_cmd.add_argument("--out", required=True, help="report file to create")
    monitor_cmd.add_argument("--rules", default=None, help="YAML file with alert rules")
    monitor_cmd.add_argument("--replay", action="store_true", help="include a replay audit section")
    monitor_cmd.add_argument(
        "--append-alerts", action="store_true", help="append fired alerts to the ledger"
    )

    inspect_cmd = sub.add_parser("ledger-inspect", help="pretty-print one ledger record")
    inspect_cmd.add_argument("--ledger", required=True)
    inspect_cmd.add_argument("--seq", type=int, required=True)
    return parser


def _parse_inject(text: str, base: FailureInjectionSpec) -> FailureInjectionSpec:
    overrides = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigurationError(f"--inject entries must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in ("policy_exception_prob", "data_loss_prob", "delay_geometric_p"):
            raise ConfigurationError(f"--inject: unknown key {key!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ConfigurationError(f"--inject: {key} needs a number, got {value!r}") from None
    return dataclasses.replace(base, **overrides)


def _fresh_out_path(path_str: str) -> Path:
    path = Path(path_str)
    if path.exists():
        raise StorageError(f"output {path} already exists; reruns require a new output path")
    if path.parent and not path.parent.is_dir():
        raise StorageError(f"output directory {path.parent} does not exist")
    return path


def _resolve_env(config, args) -> twin.EnvironmentSpec:
    env = twin.environment_from_dict(config.environment)
    replacements = {}
    if getattr(args, "participants", None) is not None:
        replacements["n_participants"] = args.participants
    if getattr(args, "days", None) is not None:
        replacements["n_days"] = args.days
    return dataclasses.replace(env, **replacements) if replacements else env


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    if args.inject is not None:
        config = dataclasses.replace(
            config, injection=_parse_inject(args.inject, config.injection)
        )
    env = _resolve_env(config, args)
    out = _fresh_out_path(args.out)
    result = twin.run_trial(env, config, config.master_seed, out_path=out, fsync=args.fsync)
    result.ledger.close()
    print(f"ledger {out} written: {len(result.ledger)} events, stream {result.ledger.stream_id}")
    return EXIT_OK


def _seeds_for_run(config) -> list[int]:
    seeds = config.tuning.get("seeds") if isinstance(config.tuning, dict) else None
    if seeds:
        return [int(s) for s in seeds]
    return [config.master_seed]


def _cmd_twin_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    base_env = twin.environment_from_dict(config.environment)
    envs = twin.build_environment_grid(base_env, config.grid) if config.grid else [base_env]
    out = _fresh_out_path(args.out)
    report = twin.run_grid(config, envs, _seeds_for_run(config), jobs=args.jobs)
    out.write_bytes(report.to_bytes())
    print(f"evaluation report {out} written: {len(report.rows)} trials")
    return EXIT_OK


def _cmd_twin_tune(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    base_env = twin.environment_from_dict(config.environment)
    envs = twin.build_environment_grid(base_env, config.grid) if config.grid else [base_env]
    candidates = twin.tuning_candidates(config)
    out = _fresh_out_path(args.out)
    ranked, report = twin.tune(
        config, envs, _seeds_for_run(config), candidates, jobs=args.jobs
    )
    out.write_bytes(twin.tuning_report_bytes(ranked, report))
    best = ranked[0]
    print(f"tuning report {out} written; best candidate: {best.candidate.label}")
    return EXIT_OK


def _cmd_replay_verify(args) -> int:
    with Ledger.open(args.ledger) as ledger:
        if args.versions is not None:
            version_ids = [v for v in args.versions.split(",") if v]
        else:
            version_ids = sorted({r.version_id for r in ledger.records()})
        logic = {vid: default_logic() for vid in version_ids}
        report = replay_verify(ledger, logic)
    if args.out is not None:
        _fresh_out_path(args.out).write_bytes(report.to_bytes())
    if report.exact:
        print(f"replay exact: {report.counts}")
        return EXIT_OK
    print(
        f"replay diverged: first_divergent_seq={report.first_divergent_seq} "
        f"({len(report.field_diffs)} field diffs)",
        file=sys.stderr,
    )
    return EXIT_DIVERGED


def _load_rules(path_str: str | None) -> list[AlertRule]:
    if path_str is None:
        return list(DEFAULT_RULES)
    raw = yaml.safe_load(Path(path_str).read_text())
    if isinstance(raw, dict):
        raw = raw.get("rules", [])
    if not isinstance(raw, list):
        raise ConfigurationError("--rules file must hold a list of rules")
    rules = []
    for i, item in enumerate(raw):
        try:
            rules.append(
                AlertRule(
                    metric=item["metric"],
                    comparator=item["comparator"],
                    threshold=float(item["threshold"]),
                    window=item.get("window", "per-day"),
                    severity=item.get("severity", "medium"),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"--rules[{i}]: {exc}") from None
    return rules


def _cmd_monitor_report(args) -> int:
    rules = _load_rules(args.rules)
    out = _fresh_out_path(args.out)
    with Ledger.open(args.ledger) as ledger:
        metrics = compute_metrics(ledger)
        divergence = None
        if args.replay:
            version_ids = sorted({r.version_id for r in ledger.records()})
            divergence = replay_verify(ledger, {vid: default_logic() for vid in version_ids})
        alerts = evaluate_alerts(metrics, rules, ledger=ledger if args.append_alerts else None)
    out.write_bytes(emit_report(metrics, alerts, divergence))
    print(f"monitor report {out} written: {len(alerts)} alerts")
    if divergence is not None and not divergence.exact:
        return EXIT_DIVERGED
    return EXIT_OK


def _decoded_payload_view(event_type: str, payload: dict):
    float_fields = {
        "DATA_INGESTED": ("value",),
        "DECISION": ("pi", "pi_raw"),
        "OUTCOME_OBSERVED": ("reward",),
        "ALERT": ("threshold", "value"),
    }
    list_float_fields = {"FEATURE_SNAPSHOT": ("baseline", "treatment")}
    view = dict(payload)
    for name in float_fields.get(event_type, ()):
        if isinstance(view.get(name), str):
            view[name] = decode_float(view[name])
    for name in list_float_fields.get(event_type, ()):
        if isinstance(view.get(name), list):
            view[name] = [decode_float(v) for v in view[name]]
    return view


def _cmd_ledger_inspect(args) -> int:
    # Verifies the records up to the one asked for, not the rest, so a record
    # before a break in the chain can still be looked at.
    count = 0
    for record in read_records(args.ledger):
        if record.seq == args.seq:
            break
        count += 1
    else:
        if count == 0:
            raise DecodeError("ledger file is empty")
        raise ConfigurationError(f"--seq {args.seq} out of range [0, {count})")
    body = record.body_dict()
    body["hash"] = record.hash.hex()
    print(json.dumps(body, indent=2, sort_keys=True))
    decoded = _decoded_payload_view(record.event_type, record.payload)
    if decoded != record.payload:
        print("# decoded floats:")
        print(json.dumps(decoded, indent=2, sort_keys=True, default=str))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "twin-run": _cmd_twin_run,
    "twin-tune": _cmd_twin_tune,
    "replay-verify": _cmd_replay_verify,
    "monitor-report": _cmd_monitor_report,
    "ledger-inspect": _cmd_ledger_inspect,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot belongs to audit errors
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.verb](args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StorageError as exc:
        print(f"storage error: {exc}", file=sys.stderr)
        return EXIT_STORAGE
    except DecodeError as exc:
        if exc.seq is not None:  # a ledger record failed the read pass
            print(f"audit error: hash chain broken, first_bad_seq={exc.seq}", file=sys.stderr)
        else:
            print(f"audit error: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except AuditError as exc:
        print(f"audit error: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except LedgerLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
