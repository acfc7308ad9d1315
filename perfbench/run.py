"""ledgerloop benchmark: the real CLI verbs on generated inputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition is a fresh interpreter
(perfbench/worker.py) that imports ledgerloop from ./src, loads the run's
config and then calls the verbs in process. Workloads (closed loop, one
process, the workload seed is the trial's master seed):

    sim-long    simulate, 20 participants x 112 days, file-backed, no fsync
    sim-wide    simulate, 80 x 28: the same decisions, histories 4x shorter
    audit-long  replay-verify, then monitor-report --replay, on the
                sim-long ledger, which is built once per invocation
    tune-grid   twin-tune --jobs 2: 3 candidates x 2 environments x 3 seeds

With --trace 0 the run repeats the workload until at least --seconds of verb
time is measured, and at least twice, and reports the end-to-end metrics of
BENCHMARK.json. With --trace 1 it runs the workload once untraced and once
traced (perfbench/tracing.py) and reports the per-layer metrics. Every verb's exit code, replay verdict and
output bytes are checked; the last line of standard output is one JSON
object. A result file with digests and the environment goes to
perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
EXAMPLE_CONFIG = ROOT / "configs" / "example.yaml"
CLOCK = time.CLOCK_MONOTONIC

MIN_REPS = 2  # output bytes are compared across repetitions
BUDGET_S = 165.0  # a run must end within 180 s
# A reference second is the time the worker's calibration loop takes, divided
# by this. The host's CPU speed drifts by up to 2x over minutes; timing the
# loop in the same process as the verbs and rescaling cancels that drift.
CALIBRATION_REF_S = 0.2


@dataclass(frozen=True)
class Workload:
    kind: str  # "simulate", "audit" or "tune"
    participants: int = 20
    days: int = 28
    jobs: int = 1


WORKLOADS = {
    "sim-long": Workload("simulate", participants=20, days=112),
    "sim-wide": Workload("simulate", participants=80, days=28),
    "audit-long": Workload("audit", participants=20, days=112),
    "tune-grid": Workload("tune", jobs=2),
}


class Failed(Exception):
    """A verb invocation that counts against error_rate."""


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- inputs -------------------------------------------------------------------


def write_config(run_dir: Path, seed: int) -> tuple[Path, dict]:
    """configs/example.yaml with the workload seed as master seed and as the
    root of the tuning seeds; everything else, injection included, as is."""
    import yaml

    raw = yaml.safe_load(EXAMPLE_CONFIG.read_text())
    raw["master_seed"] = seed
    raw["tuning"]["seeds"] = [3 * seed + 1, 3 * seed + 2, 3 * seed + 3]
    path = run_dir / "config.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=True))
    return path, raw


def simulate_argv(wl: Workload, config: Path, seed: int, out: Path) -> list[str]:
    return [
        "simulate", "--config", str(config), "--out", str(out), "--seed", str(seed),
        "--participants", str(wl.participants), "--days", str(wl.days),
    ]


# -- worker processes ---------------------------------------------------------


class Runner:
    """Spawns workers, keeps the set-up samples and the run's deadline."""

    def __init__(self, run_dir: Path, config: Path, deadline: float):
        self.run_dir = run_dir
        self.config = config
        self.deadline = deadline
        self.setup_samples: list[float] = []
        self.setup_ref_samples: list[float] = []
        self.count = 0

    def spawn(self, verbs, checks=(), trace=False, jobs=1, stamp=False) -> dict:
        self.count += 1
        job_dir = self.run_dir / f"job{self.count}"
        job_dir.mkdir()
        job = {
            "root": str(ROOT), "config": str(self.config), "verbs": verbs,
            "checks": list(checks), "trace": trace, "jobs": jobs, "stamp": stamp,
            "spool": str(job_dir), "result": str(job_dir / "result.json"),
        }
        (job_dir / "job.json").write_text(json.dumps(job))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run budget exhausted")
        start = time.clock_gettime(CLOCK)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_dir / "job.json")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _reap_group(proc.pid)
            proc.communicate()
            raise TimeoutError("worker exceeded the run budget") from None
        finally:
            _reap_group(proc.pid)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{stderr.decode(errors='replace')}")
        result = json.loads((job_dir / "result.json").read_text())
        result["setup_s"] = result["ready"] - start
        result["scale"] = CALIBRATION_REF_S / statistics.mean(result["calibration_s"])
        self.setup_samples.append(result["setup_s"])
        self.setup_ref_samples.append(result["setup_s"] * result["scale"])
        return result


def _reap_group(pgid: int) -> None:
    """Kill whatever the worker's session left behind (e.g. pool workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- one repetition -------------------------------------------------------------


class Repetitions:
    """Runs repetitions of one workload and checks each one's outputs."""

    def __init__(self, wl: Workload, runner: Runner, seed: int, raw_config: dict, audit_input=None):
        self.wl = wl
        self.runner = runner
        self.seed = seed
        self.raw = raw_config
        self.audit_input = audit_input  # (path, digest, records, decisions)

    def plan(self, rep_dir: Path, check_replay: bool):
        """(verbs, outputs per verb, untimed checks)."""
        wl, cfg = self.wl, self.runner.config
        if wl.kind == "simulate":
            ledger = rep_dir / "ledger.ndjson"
            checks = [["replay-verify", "--ledger", str(ledger)]] if check_replay else []
            return [simulate_argv(wl, cfg, self.seed, ledger)], [[ledger]], checks
        if wl.kind == "audit":
            ledger = str(self.audit_input[0])
            divergence, report = rep_dir / "divergence.txt", rep_dir / "monitor.txt"
            return (
                [
                    ["replay-verify", "--ledger", ledger, "--out", str(divergence)],
                    ["monitor-report", "--ledger", ledger, "--out", str(report), "--replay"],
                ],
                [[divergence], [report]],
                [],
            )
        ranked = rep_dir / "ranked.txt"
        argv = ["twin-tune", "--config", str(cfg), "--out", str(ranked), "--seed", str(self.seed),
                "--jobs", str(wl.jobs)]
        return [argv], [[ranked]], []

    def run(self, index: int, trace: bool, check_replay: bool) -> dict:
        rep_dir = self.runner.run_dir / f"rep{index}"
        rep_dir.mkdir()
        verbs, outputs, checks = self.plan(rep_dir, check_replay)
        result = self.runner.spawn(verbs, checks, trace=trace, jobs=self.wl.jobs)
        rep = {"trace": trace, "setup_s": result["setup_s"], "rss_kb": result["rss_kb"],
               "calibration_s": result["calibration_s"], "scale": result["scale"],
               "walls": [v["wall_s"] for v in result["verbs"]], "verbs": []}
        for verb, files in zip(result["verbs"], outputs):
            entry = {"verb": verb["verb"], "wall_s": verb["wall_s"], "failure": None, "digests": {}}
            try:
                if verb["code"] != 0:
                    raise Failed(f"{verb['verb']} exited {verb['code']}")
                entry["digests"] = {path.name: sha256(path) for path in files}
                entry.update(self.check(verb, files, result["checks"]))
            except (Failed, OSError, ValueError, KeyError) as exc:
                entry["failure"] = f"{type(exc).__name__}: {exc}"
            rep["verbs"].append(entry)
        if trace:
            for key in ("layers", "span_table", "verb_counters", "pool_tasks_merged"):
                rep[key] = result[key]
        shutil.rmtree(rep_dir)
        return rep

    def check(self, verb: dict, files: list[Path], checks: list[dict]) -> dict:
        """Verify one verb's output; returns the work it did."""
        wl = self.wl
        decision_times = len(self.raw["schedule"]["decision_times"])
        if wl.kind == "simulate":
            for check in checks:
                if check["code"] != 0 or not check["stdout"].startswith("replay exact"):
                    raise Failed(f"replay of the simulated ledger is not exact: {check['stdout']!r}")
            data = files[0].read_bytes()
            records = data.count(b"\n")
            decisions = data.count(b'"event_type":"DECISION"')
            expected = wl.participants * wl.days * decision_times
            if decisions != expected:
                raise Failed(f"{decisions} decisions logged, {expected} scheduled")
            return {"records": records, "decisions": decisions, "bytes": len(data)}
        if wl.kind == "audit":
            path, digest, records, decisions = self.audit_input
            if sha256(path) != digest:
                raise Failed("audited ledger changed")
            lines = files[0].read_bytes().splitlines()
            if verb["verb"] == "replay-verify":
                head = json.loads(lines[1])
                if head["status"] != "exact" or head["counts"]["decisions_checked"] != decisions:
                    raise Failed(f"replay-verify: {head}")
            else:
                replay = [json.loads(l) for l in lines[1:] if l.startswith(b'{"deployment')]
                if len(replay) != 1 or replay[0]["status"] != "exact":
                    raise Failed(f"monitor-report replay section: {replay}")
            return {"records": records, "decisions": decisions}
        tuning = self.raw["tuning"]
        candidates = len(tuning["prior_precision_scale"]) * len(tuning["noise_variance"])
        trials = candidates * len(self.raw["grid"]["effect_mean"]) * len(tuning["seeds"])
        per_trial = self.raw["environment"]["n_participants"] * self.raw["environment"]["n_days"] * decision_times
        lines = files[0].read_bytes().splitlines()
        ranked = [json.loads(l) for l in lines if l.startswith(b"{") and b'"kind":"ranked"' in l]
        rows = [json.loads(l) for l in lines if l.startswith(b"{") and b'"kind":"row"' in l]
        if len(ranked) != candidates or len(rows) != trials:
            raise Failed(f"{len(ranked)} ranked / {len(rows)} rows, expected {candidates} / {trials}")
        if any(r["n_decisions"] != per_trial or r["decision_coverage"]["dec"] != "1.0" for r in rows):
            raise Failed("a trial did not make every scheduled decision")
        return {"trials": len(rows), "decisions": sum(r["n_decisions"] for r in rows)}


# -- the run ----------------------------------------------------------------------


def build_audit_input(runner: Runner, wl: Workload, seed: int) -> tuple:
    """The sim-long ledger for this seed. Its digest is taken here and checked
    before every timed repetition; the repetitions check its replay."""
    path = runner.run_dir / "audit-input.ndjson"
    result = runner.spawn([simulate_argv(wl, runner.config, seed, path)])
    if result["verbs"][0]["code"] != 0:
        raise RuntimeError(f"audit input could not be built: {result['verbs']}")
    data = path.read_bytes()
    return path, sha256(path), data.count(b"\n"), data.count(b'"event_type":"DECISION"')


def failures(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons). A verb fails when it exits non-zero,
    its replay is not exact, or its output bytes differ from the first
    repetition's (in a traced run: from the untraced repetition's)."""
    attempted, reasons = 0, []
    for i, rep in enumerate(reps):
        for verb, first in zip(rep["verbs"], reps[0]["verbs"]):
            attempted += 1
            if verb["failure"] is None and verb["digests"] != first["digests"]:
                verb["failure"] = "output differs from the first repetition"
            elif verb["failure"] is None and first["failure"]:
                verb["failure"] = "same output as the first repetition, which failed"
            if verb["failure"]:
                reasons.append(f"rep {i} {verb['verb']}: {verb['failure']}")
    return attempted, len(reasons), reasons


def median_of(reps: list[dict], fn) -> float:
    values = [fn(rep) for rep in reps if all(v["failure"] is None for v in rep["verbs"])]
    return statistics.median(values) if values else 0.0


def end_to_end(wl: Workload, reps: list[dict], runner: Runner, error_rate: float):
    """(metrics gated by BENCHMARK.json, all metrics the workload prints)."""

    def work(rep, key):
        return rep["verbs"][0].get(key, 0)

    def per_s(key, verb=None, ref=False):
        def rate(rep):
            walls = rep["walls"] if verb is None else [rep["walls"][verb]]
            done = work(rep, key) * (len(rep["verbs"]) if verb is None else 1)
            return done / (sum(walls) * (rep["scale"] if ref else 1.0))

        return median_of(reps, rate)

    gated = {
        "setup_s": statistics.median(runner.setup_ref_samples),
        "decisions_per_ref_s": per_s("decisions", ref=True),
        "peak_rss_mb": max((r["rss_kb"]["self"] + r["rss_kb"]["children"]) / 1024 for r in reps),
    }
    named = dict(
        gated,
        setup_wall_s=statistics.median(runner.setup_samples),
        decisions_per_s=per_s("decisions"),
        calibration_s=statistics.median(c for r in reps for c in r["calibration_s"]),
        error_rate=error_rate,
    )
    if wl.kind == "simulate":
        named["bytes_per_record"] = work(reps[0], "bytes") / max(work(reps[0], "records"), 1)
        named["records_per_s"] = per_s("records")
    elif wl.kind == "audit":
        named["replay_verify_records_per_s"] = per_s("records", verb=0)
        named["monitor_report_records_per_s"] = per_s("records", verb=1)
    else:
        named["trials_per_s"] = per_s("trials")
    return gated, named


UNITS = {
    "setup_wall_s": "s", "decisions_per_s": "1/s", "calibration_s": "s",
    "error_rate": "share", "bytes_per_record": "B", "records_per_s": "1/s",
    "replay_verify_records_per_s": "1/s", "monitor_report_records_per_s": "1/s",
    "trials_per_s": "1/s",
}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "ledgerloop" / "cli.py", EXAMPLE_CONFIG, ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a ledgerloop checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    deadline = time.monotonic() + BUDGET_S
    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        config, raw = write_config(run_dir, args.seed)
        runner = Runner(run_dir, config, deadline)
        stamp = runner.spawn([], stamp=True)["stamp"]
        audit_input = build_audit_input(runner, wl, args.seed) if wl.kind == "audit" else None
        rep = Repetitions(wl, runner, args.seed, raw, audit_input)

        reps = [rep.run(0, trace=False, check_replay=True)]
        if args.trace:
            reps.append(rep.run(1, trace=True, check_replay=False))
        else:
            measured = sum(reps[0]["walls"])
            while len(reps) < MIN_REPS or measured < args.seconds:
                if time.monotonic() + 1.5 * (sum(reps[-1]["walls"]) + 1.0) > deadline:
                    break
                reps.append(rep.run(len(reps), trace=False, check_replay=False))
                measured += sum(reps[-1]["walls"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, reasons = failures(reps)
    if args.trace:
        metrics = dict(reps[1]["layers"])
        metrics["trace.overhead_share"] = (
            sum(reps[1]["walls"]) * reps[1]["scale"] / (sum(reps[0]["walls"]) * reps[0]["scale"]) - 1
        )
        named = metrics
    else:
        metrics, named = end_to_end(wl, reps, runner, failed / attempted)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "environment": stamp,
        "correct": failed == 0, "attempted": attempted, "failed": failed, "failures": reasons,
        "metrics": named, "setup_samples_s": runner.setup_samples,
        "setup_ref_samples_s": runner.setup_ref_samples,
        "audit_input": None if audit_input is None else {
            "sha256": audit_input[1], "records": audit_input[2], "decisions": audit_input[3]},
        "reps": reps,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True))

    for name, value in named.items():
        print(f"{args.workload:<11} {name:<34} {value:>16.6g} {units.get(name, UNITS.get(name, ''))}")
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
