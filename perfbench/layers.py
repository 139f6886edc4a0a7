"""Per-layer metrics from the span files of a traced run."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

STAGES = (
    "profile", "signature", "cluster", "select", "measure",
    "reconstruct", "validate", "rankify", "coalesce_ranks",
)

#: (metric, span) pairs reported as per-pass inclusive seconds over
#: every process of the run (driver and pool workers).
TIMED = (
    ("exec.cells.execute_s", "exec.cells.execute"),
    ("exec.store.load_s", "exec.store.load"),
    ("exec.store.store_s", "exec.store.store"),
    ("exec.columnar.read_s", "exec.columnar.read"),
    ("exec.columnar.write_s", "exec.columnar.write"),
    ("exec.stagestore.load_s", "exec.stagestore.load"),
    ("exec.stagestore.store_s", "exec.stagestore.store"),
    ("clustering.run_simpoint_s", "clustering.run_simpoint"),
    ("clustering.kmeans_s", "clustering.kmeans"),
    ("api.context.counters_on_s", "api.context.counters_on"),
    ("runtime.execute_distributed_s", "runtime.execute_distributed"),
    ("runtime.execute_program_s", "runtime.execute_program"),
    ("hw.perf.true_counters_s", "hw.perf.true_counters"),
    ("mem.reuse_s", "mem.reuse"),
    ("mem.cache_sim_s", "mem.cache_sim"),
    ("instrumentation.collect_s", "instrumentation.collect"),
    *((f"api.stages.{stage}.run_s", f"api.stages.{stage}.run") for stage in STAGES),
)

#: (metric, span) pairs reported as per-pass call counts.
CALLS = (
    ("clustering.kmeans_calls", "clustering.kmeans"),
    ("api.context.counters_on_calls", "api.context.counters_on"),
    ("exec.stagestore.lookups", "exec.stagestore.load"),
    *((f"api.stages.{stage}.calls", f"api.stages.{stage}.run") for stage in STAGES),
)

#: Serve and generator figures; zero on the batch workloads.
SERVE = (
    "serve.computed", "serve.warm_memo", "serve.warm_disk",
    "serve.coalesce_ratio", "serve.rate_limited", "serve.failures", "serve.peak_rss_mib",
    "gen.late_p99_ms", "get_p50_ms", "get_p99_ms", "get_max_rps", "submit_p50_ms",
)

#: Spans that contain other layers' work, left out of layer shares.
CONTAINERS = ("exec.scheduler.run_s", "exec.cells.execute_s",
              "exec.backends.worker_busy_s", "fill.wall_s")

#: quick-warm's set-up pass is ``repro all --quick`` cold and serial.
FILL = ("fill.wall_s", "fill.stagestore.lookups", "fill.stagestore.hits",
        "fill.stagestore.hit_ratio")


class Spans:
    """Span aggregates of one traced run, summed per process role."""

    def __init__(self, trace_dir: Path | None = None) -> None:
        self.spans = {"driver": defaultdict(lambda: [0, 0.0, 0.0, 0, 0]),
                      "worker": defaultdict(lambda: [0, 0.0, 0.0, 0, 0])}
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        for path in sorted(trace_dir.glob("spans-*.jsonl")) if trace_dir else ():
            for line in path.read_text().splitlines():
                record = json.loads(line)
                table = self.spans[record["role"]]
                for name, row in record["spans"].items():
                    total = table[name]
                    for index, value in enumerate(row):
                        total[index] += value
                for name, value in record["counts"].items():
                    self.counts[name] += value
                for name, value in record["gauges"].items():
                    self.gauges[name] = max(self.gauges.get(name, value), value)

    def get(self, name: str, field: int, role: str | None = None) -> float:
        roles = (role,) if role else ("driver", "worker")
        return sum(self.spans[r][name][field] if name in self.spans[r] else 0
                   for r in roles)

    def driver_self_s(self) -> float:
        return sum(row[2] for row in self.spans["driver"].values())


CALLS_, INCL, SELF, BYTES, HITS = range(5)


def layer_metrics(spans: Spans, passes: int, wall_s: float) -> dict:
    """Per-pass layer figures of ``passes`` traced passes lasting
    ``wall_s`` in total, measured from outside each process."""
    per = 1.0 / passes
    metrics = {
        "cli.import_s": spans.get("cli.import", INCL, "driver") * per,
        "exec.scheduler.run_s": spans.get("exec.scheduler.run", INCL, "driver") * per,
        "exec.scheduler.self_s": spans.get("exec.scheduler.run", SELF, "driver") * per,
        "exec.scheduler.cells_executed": spans.counts["exec.scheduler.cells_executed"] * per,
        "exec.scheduler.cells_from_disk": spans.counts["exec.scheduler.cells_from_disk"] * per,
        "exec.cells.self_s": spans.get("exec.cells.execute", SELF) * per,
        "exec.columnar.bytes_read": spans.get("exec.columnar.read", BYTES) * per,
        "exec.stagestore.hits": spans.get("exec.stagestore.load", HITS) * per,
        "exec.stagestore.bytes_written":
            spans.counts["exec.stagestore.store.child_bytes"] * per,
        "experiments.render_s": spans.get("experiments.render", INCL, "driver") * per,
    }
    for metric, name in TIMED:
        metrics[metric] = spans.get(name, INCL) * per
    for metric, name in CALLS:
        metrics[metric] = spans.get(name, CALLS_) * per
    lookups = spans.get("exec.stagestore.load", CALLS_)
    metrics["exec.stagestore.hit_ratio"] = (
        spans.get("exec.stagestore.load", HITS) / lookups if lookups else 0.0
    )
    busy = spans.get("exec.scheduler.item", INCL, "worker")
    jobs = spans.gauges.get("exec.backends.jobs", 0)
    scheduled = spans.get("exec.scheduler.run", INCL, "driver")
    metrics["exec.backends.worker_busy_s"] = busy * per
    metrics["exec.backends.worker_util"] = busy / (jobs * scheduled) if jobs and scheduled else 0.0
    metrics["unattributed_frac"] = (wall_s - spans.driver_self_s()) / wall_s
    return metrics


def fill_metrics(spans: Spans, wall_s: float) -> dict:
    lookups = spans.get("exec.stagestore.load", CALLS_)
    hits = spans.get("exec.stagestore.load", HITS)
    return {
        "fill.wall_s": wall_s,
        "fill.stagestore.lookups": lookups,
        "fill.stagestore.hits": hits,
        "fill.stagestore.hit_ratio": hits / lookups if lookups else 0.0,
    }


def names() -> list[str]:
    """Every per-layer metric, in report order."""
    base = layer_metrics(Spans(), 1, 1.0)
    return [*base, "trace_overhead_frac", *SERVE, *FILL]


def complete(metrics: dict) -> dict:
    """Every per-layer name present; what a workload lacks reads 0."""
    return {name: float(metrics.get(name, 0.0)) for name in names()}
