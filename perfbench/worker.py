"""One fresh interpreter of the benchmark: set up, then run CLI verbs in process.

Usage: python3 perfbench/worker.py JOB.json

The job names the checkout root, the config to load, the verbs to time and
the verbs to run untimed afterwards, whether to trace, and where to write the
result. Set-up ends when ``ledgerloop`` is imported and the config is loaded;
the result carries that instant on the system-wide monotonic clock so the
parent can measure set-up from before it spawned this process. A calibration
loop is timed right after set-up and again after the verbs, so the parent
can rescale this process's times to a machine of fixed speed.
"""

import json
import sys
import time

CLOCK = time.CLOCK_MONOTONIC


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, f"{job['root']}/src")
    from ledgerloop import cli
    from ledgerloop.config import load_config

    if not cli.__file__.startswith(f"{job['root']}/src/"):
        raise RuntimeError(f"ledgerloop imported from {cli.__file__}, not the checkout")

    tracer = None
    if job["trace"]:
        from pathlib import Path

        from tracing import Tracer

        tracer = Tracer(Path(job["spool"]))
        tracer.install()
        load_config = sys.modules["ledgerloop.config"].load_config
    load_config(job["config"])
    ready = time.clock_gettime(CLOCK)

    result = {"ready": ready, "verbs": [], "checks": [], "calibration_s": [_calibrate()]}
    verb_counters = []
    for argv in job["verbs"]:
        before = dict(tracer.counters) if tracer else None
        result["verbs"].append(_run_verb(cli, argv))
        if tracer:
            verb_counters.append(
                {k: v - before.get(k, 0) for k, v in tracer.counters.items() if v != before.get(k, 0)}
            )
    result["calibration_s"].append(_calibrate())
    result["rss_kb"] = _peak_rss_kb()
    for argv in job["checks"]:
        result["checks"].append(_run_verb(cli, argv))
    if job["stamp"]:
        result["stamp"] = _environment()
    if tracer:
        from tracing import layer_metrics, span_table

        result["pool_tasks_merged"] = tracer.merge_spool()
        result["span_table"] = span_table(tracer.spans)
        result["verb_counters"] = verb_counters
        result["layers"] = layer_metrics(
            tracer.spans, tracer.counters, verbs=len(job["verbs"]), jobs=job["jobs"]
        )
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _calibrate(rounds: int = 12000) -> float:
    """Seconds this interpreter takes for a fixed mix of the operations
    ledgerloop spends its time on: canonical JSON encode and parse of a small
    record with hex-encoded floats, and SHA-256 chaining. It calls no
    ledgerloop code, so a change to the program does not move it; the
    machine's speed at the moment does."""
    import hashlib
    import struct

    prev = bytes(32)
    start = time.perf_counter()
    for i in range(rounds):
        record = {
            "seq": i, "prev_hash": prev.hex(), "event_type": "FEATURE_SNAPSHOT",
            "payload": {
                "participant_id": f"p{i % 20:03d}", "decision_index": i,
                "baseline": [struct.pack(">d", i * 0.25 + k).hex() for k in range(3)],
                "provenance": ["observed", "imputed", "default"],
            },
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        prev = hashlib.sha256(prev + line).digest()
        json.loads(line)
    return time.perf_counter() - start


def _run_verb(cli, argv: list[str]) -> dict:
    import contextlib
    import io

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    return {"verb": argv[0], "code": code, "wall_s": wall, "stdout": out.getvalue()}


def _peak_rss_kb() -> dict:
    import resource

    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})

    def library(name):  # the build's own directories say nothing about this host
        return {k: v for k, v in build.get(name, {}).items() if "directory" not in k}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": library("blas"),
        "lapack": library("lapack"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
