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

from .config import EnvironmentSpec, FailureInjectionSpec, load_config, read_yaml
from .errors import (
    AuditError,
    ConfigurationError,
    DecodeError,
    LedgerLoopError,
    StorageError,
)
from .events import StreamIndex
# read_records is called through its module, so a wrapper installed there
# (the benchmark's tracer counts file reads) sees every read.
from . import ledger
from .ledger import CONFIG_FORMAT, Ledger, decode_as, map_floats
from .monitor import DEFAULT_RULES, AlertRule, compute_metrics, emit_report, evaluate_alerts
from .replay import reconstruct_states, replay_verify

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
        help="comma-separated version ids to give logic (default: every version the ledger activates)",
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


def _resolve_env(config, args) -> EnvironmentSpec:
    sizes = {"n_participants": args.participants, "n_days": args.days}
    return dataclasses.replace(
        config.environment, **{name: size for name, size in sizes.items() if size is not None}
    )


def _load_config(args):
    """The run config of ``--config``, with ``--seed`` as its master seed if given."""
    config = load_config(args.config)
    return config if args.seed is None else dataclasses.replace(config, master_seed=args.seed)


def _cmd_simulate(args) -> int:
    from . import twin  # and the runtime: only the verbs that run a trial load them

    config = _load_config(args)
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
    return list(config.tuning.seeds or (config.master_seed,))


def _cmd_twin_run(args) -> int:
    from . import twin

    config = _load_config(args)
    out = _fresh_out_path(args.out)
    report = twin.run_grid(config, list(config.environments), _seeds_for_run(config), jobs=args.jobs)
    out.write_bytes(report.to_bytes())
    print(f"evaluation report {out} written: {len(report.rows)} trials")
    return EXIT_OK


def _cmd_twin_tune(args) -> int:
    from . import twin

    config = _load_config(args)
    candidates = twin.tuning_candidates(config)
    out = _fresh_out_path(args.out)
    ranked, report = twin.tune(
        config, list(config.environments), _seeds_for_run(config), candidates, jobs=args.jobs
    )
    out.write_bytes(twin.tuning_report_bytes(ranked, report))
    best = ranked[0]
    print(f"tuning report {out} written; best candidate: {best.candidate.label}")
    return EXIT_OK


def _cmd_replay_verify(args) -> int:
    out = None if args.out is None else _fresh_out_path(args.out)
    versions = None if args.versions is None else [v for v in args.versions.split(",") if v]
    report = replay_verify(ledger.read_records(args.ledger), versions=versions)
    if out is not None:
        out.write_bytes(report.to_bytes())
    if report.exact:
        print(f"replay exact: {report.counts}")
        return EXIT_OK
    print(
        f"replay diverged: first_divergent_seq={report.first_divergent_seq} "
        f"({len(report.field_diffs)} field diffs)",
        file=sys.stderr,
    )
    return EXIT_DIVERGED


@dataclasses.dataclass(frozen=True)
class _RulesFile:
    rules: tuple[AlertRule, ...]


def _load_rules(path_str: str | None) -> list[AlertRule]:
    """The rules of a ``--rules`` file: a mapping whose one member is
    ``rules``, or a bare list of rules."""
    if path_str is None:
        return list(DEFAULT_RULES)
    raw = read_yaml(path_str, f"--rules file {path_str} cannot be read", "--rules file")
    if isinstance(raw, list):
        raw = {"rules": raw}
    try:
        return list(decode_as(_RulesFile, raw, CONFIG_FORMAT).rules)
    except DecodeError as exc:
        raise ConfigurationError(f"--rules: {exc}") from None


def _cmd_monitor_report(args) -> int:
    rules = _load_rules(args.rules)
    out = _fresh_out_path(args.out)
    records = ledger.read_records(args.ledger)
    divergence = None
    if args.replay:
        recon = reconstruct_states(records)
        index, divergence = recon.index, recon.report()
    else:
        index = StreamIndex.fold(records)
    metrics = compute_metrics(index)
    if args.append_alerts:
        # Only an append needs the ledger object. Opening it verifies the
        # file again but keeps only its last record.
        with Ledger.open(args.ledger) as target:
            if len(target) != index.size:
                raise AuditError(
                    f"{args.ledger} holds {len(target)} records, but {index.size} were "
                    "audited; it changed during the audit"
                )
            alerts = evaluate_alerts(metrics, rules, ledger=target)
    else:
        alerts = evaluate_alerts(metrics, rules)
    out.write_bytes(emit_report(metrics, alerts, divergence))
    print(f"monitor report {out} written: {len(alerts)} alerts")
    if divergence is not None and not divergence.exact:
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_ledger_inspect(args) -> int:
    # Verifies the records up to the one asked for, not the rest, so a record
    # before a break in the chain can still be looked at.
    count = 0
    for record in ledger.read_records(args.ledger):
        if record.seq == args.seq:
            break
        count += 1
    else:
        raise ConfigurationError(f"--seq {args.seq} out of range [0, {count})")
    stored = json.loads(record.to_line())
    print(json.dumps(stored, indent=2, sort_keys=True))
    decoded = map_floats(record.payload, float)
    if decoded != stored["payload"]:  # the payload holds a float
        print("# decoded floats:")
        print(json.dumps(decoded, indent=2, sort_keys=True))
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
