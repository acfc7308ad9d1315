"""Span tracing of ledgerloop from the outside, for the benchmark's traced run.

The tracer replaces public functions and methods of each module with wrappers
that record one span per call: name, start, end and the span that caused it.
Spans stay in memory until the verb finishes; per-layer metrics are computed
from them afterwards, with self time being a span's duration minus the
durations of its direct children in the same process.

Two rules keep the traced run byte-identical to the untraced one:

- Wrappers keep ``__qualname__`` (``functools.wraps``), because
  ``PolicyLogic.fingerprint`` hashes the qualnames of the policy functions
  into the VERSION_CHANGE record.
- A function is replaced under every module-level name that is bound to it,
  because ``from .ledger import verify_chain`` makes a binding of its own
  that calls made through it would otherwise bypass.

Process-pool workers (``twin-tune --jobs N``) are forked from the traced
process and inherit the wrappers. Each worker writes the spans of every task
to a spool directory when the task ends; :meth:`Tracer.merge_spool` joins
them to the parent's spans under the pool span.
"""

from __future__ import annotations

import functools
import os
import pickle
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

NAME, START, END = range(3)  # then the parent index and the remote flag

# (module, attribute, span name) of every traced function; methods are
# given as "Class.method".
TRACED = (
    ("ledger", "Ledger.append", "ledger.append"),
    ("ledger", "Ledger.open", "ledger.open"),
    ("ledger", "canonical_json_bytes", "ledger.encode"),
    ("ledger", "verify_chain", "ledger.verify_chain"),
    ("runtime", "Runtime.assemble_features", "runtime.assemble_features"),
    ("runtime", "Runtime.make_decision", "runtime.make_decision"),
    ("runtime", "Runtime.ingest_observation", "runtime.ingest"),
    ("runtime", "Runtime.ingest_outcome", "runtime.ingest"),
    ("runtime", "Runtime.run_update_cycle", "runtime.update_cycle"),
    ("policy", "action_probability", "policy.action_probability"),
    ("policy", "update_posterior", "policy.update_posterior"),
    ("replay", "reconstruct_states", "replay.reconstruct_states"),
    ("replay", "verify_decisions", "replay.verify_decisions"),
    ("replay", "verify_updates", "replay.verify_updates"),
    ("monitor", "compute_metrics", "monitor.compute_metrics"),
    ("monitor", "emit_report", "monitor.emit_report"),
    ("events", "parse_header", "events.parse"),
    ("events", "parse_data_ingested", "events.parse"),
    ("events", "parse_snapshot", "events.parse"),
    ("events", "parse_decision", "events.parse"),
    ("events", "parse_outcome", "events.parse"),
    ("events", "parse_update", "events.parse"),
    ("twin", "run_trial", "twin.run_trial"),
    ("twin", "_run_tasks", "twin.run_tasks"),
    ("config", "load_config", "config.load_config"),
)


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, result)`` runs once
        the span has ended, for counts taken from arguments or results."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, False])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][END] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count_calls(self, fn, counter: str):
        """Count calls of ``fn`` by the name of the span they happen in."""
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            where = spans[stack[-1]][NAME] if stack else "-"
            counters[f"{counter}@{where}"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function of the ``ledgerloop`` package."""
        from ledgerloop import ledger, twin

        counters = self.counters

        def after_decision(args, record):
            counters["decisions"] += 1
            counters["fallbacks"] += int(record.fallback)

        def after_update(args, state):
            counters["update_rows"] += len(args[1])

        def after_verify(args, bad):
            source = args[0]
            if not (isinstance(source, ledger.Ledger) and source.path is None):
                counters["file_parses"] += 1

        def after_open(args, opened):
            counters["records_opened"] += len(opened)

        def after_checked(args, report):
            for key, value in report.counts.items():
                counters[key] += value

        after = {
            "runtime.make_decision": after_decision,
            "policy.update_posterior": after_update,
            "ledger.verify_chain": after_verify,
            "ledger.open": after_open,
            "replay.verify_decisions": after_checked,
            "replay.verify_updates": after_checked,
        }
        for module_name, attr, span_name in TRACED:
            module = sys.modules[f"ledgerloop.{module_name}"]
            hook = after.get(span_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, span_name, hook)))
                else:
                    setattr(cls, meth, self.wrap(raw, span_name, hook))
            else:
                self._rebind(getattr(module, attr), self.wrap(getattr(module, attr), span_name, hook))

        # Counts only: a file read per Ledger.open, records parsed per span,
        # and the bytes of each line an append produces.
        ledger.read_records = self.count_calls(ledger.read_records, "file_reads")
        ledger._parse_line = self.count_calls(ledger._parse_line, "records_parsed")
        to_line = ledger.EventEnvelope.to_line
        spans, stack = self.spans, self.stack

        @functools.wraps(to_line)
        def counted_to_line(envelope):
            line = to_line(envelope)
            if stack and spans[stack[-1]][NAME] == "ledger.append":
                counters["bytes_written"] += len(line) + 1
            return line

        ledger.EventEnvelope.to_line = counted_to_line

        # Pool tasks run in forked workers: ship their spans back by file.
        self._rebind(twin._eval_row_task, self._pool_task(twin._eval_row_task))

    @staticmethod
    def _rebind(original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name == "ledgerloop" or name.startswith("ledgerloop."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)

    def _pool_task(self, fn):
        traced = self.wrap(fn, "twin.pool_task")

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if os.getpid() == self.pid:
                return traced(*args, **kwargs)
            # A forked worker starts with a copy of the parent's spans.
            self.spans.clear()
            self.stack.clear()
            self.counters.clear()
            result = traced(*args, **kwargs)
            path = self.spool / f"task-{os.getpid()}-{time.perf_counter_ns()}.pkl"
            with open(path, "wb") as fh:
                pickle.dump((self.spans, dict(self.counters)), fh)
            return result

        return task

    def merge_spool(self) -> int:
        """Add the spans and counts that pool workers wrote; returns the
        number of tasks merged. A worker's root span is caused by the pool
        span but ran in another process, so it is marked remote."""
        pool_spans = [i for i, s in enumerate(self.spans) if s[NAME] == "twin.run_tasks"]
        files = sorted(self.spool.glob("task-*.pkl"))
        for path in files:
            with open(path, "rb") as fh:
                spans, counters = pickle.load(fh)
            path.unlink()
            offset = len(self.spans)
            root = next(
                (i for i in pool_spans if self.spans[i][START] <= spans[0][START] <= self.spans[i][END]),
                -1,
            )
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    self.spans.append([name, start, end, parent + offset, False])
                else:
                    self.spans.append([name, start, end, root, True])
            self.counters.update(counters)
        return len(files)


# -- per-layer metrics --------------------------------------------------------


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus that of its children in the same process."""
    own = [end - start for _, start, end, _, _ in spans]
    for duration, (_, _, _, parent, remote) in zip(list(own), spans):
        if parent >= 0 and not remote:
            own[parent] -= duration
    return own


def layer_metrics(spans: list[list], counters: Counter, verbs: int, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's verbs."""
    durations: dict[str, list[float]] = {}
    self_time: Counter = Counter()
    for (name, start, end, _, _), own in zip(spans, _self_times(spans)):
        durations.setdefault(name, []).append(end - start)
        self_time[name] += own

    def calls(name):
        return len(durations.get(name, ()))

    def total(name):
        return sum(durations.get(name, ()))

    def us(name, q):
        return _percentile(durations.get(name, []), q) * 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    verified = counters["records_parsed@ledger.verify_chain"]
    pool_wall = total("twin.run_tasks")
    worker_tasks = [end - start for _, start, end, _, remote in spans if remote]
    return {
        "ledger.append_calls": calls("ledger.append"),
        "ledger.append_self_s": self_time["ledger.append"],
        "ledger.append_us_p50": us("ledger.append", 50),
        "ledger.append_us_p99": us("ledger.append", 99),
        "ledger.encode_calls": calls("ledger.encode"),
        "ledger.encode_s": total("ledger.encode"),
        "ledger.bytes_written": counters["bytes_written"],
        "ledger.verify_chain_s": total("ledger.verify_chain"),
        "ledger.verify_us_per_record": ratio(total("ledger.verify_chain"), verified) * 1e6,
        "ledger.open_s": total("ledger.open"),
        "ledger.open_us_per_record": ratio(total("ledger.open"), counters["records_opened"]) * 1e6,
        "ledger.file_parses": ratio(
            counters["file_parses"] + sum(v for k, v in counters.items() if k.startswith("file_reads@")),
            verbs,
        ),
        "runtime.assemble_features_calls": calls("runtime.assemble_features"),
        "runtime.assemble_features_self_s": self_time["runtime.assemble_features"],
        "runtime.assemble_features_us_p50": us("runtime.assemble_features", 50),
        "runtime.assemble_features_us_p99": us("runtime.assemble_features", 99),
        "runtime.decision_us_p50": us("runtime.make_decision", 50),
        "runtime.decision_us_p99": us("runtime.make_decision", 99),
        "runtime.ingest_self_s": self_time["runtime.ingest"],
        "runtime.update_cycle_self_s": self_time["runtime.update_cycle"],
        "runtime.fallback_share": ratio(counters["fallbacks"], counters["decisions"]),
        "policy.action_probability_calls": calls("policy.action_probability"),
        "policy.action_probability_us_p50": us("policy.action_probability", 50),
        "policy.update_posterior_calls": calls("policy.update_posterior"),
        "policy.update_posterior_us_p50": us("policy.update_posterior", 50),
        "policy.rows_per_update": ratio(counters["update_rows"], calls("policy.update_posterior")),
        "replay.reconstruct_s": total("replay.reconstruct_states"),
        "replay.verify_decisions_s": total("replay.verify_decisions"),
        "replay.verify_updates_s": total("replay.verify_updates"),
        "replay.decisions_checked": counters["decisions_checked"],
        "replay.updates_checked": counters["updates_checked"],
        "monitor.compute_metrics_self_s": self_time["monitor.compute_metrics"],
        "monitor.report_s": total("monitor.emit_report"),
        "events.parse_s": self_time["events.parse"],
        "twin.run_trial_self_s": self_time["twin.run_trial"],
        "twin.trial_s_p50": _percentile(durations.get("twin.run_trial", []), 50),
        "twin.pool_busy_share": ratio(sum(worker_tasks), jobs * pool_wall),
        "config.load_s": _percentile(durations.get("config.load_config", []), 50),
    }


def span_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name, for the result file."""
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), own in zip(spans, _self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table
