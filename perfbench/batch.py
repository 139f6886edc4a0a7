"""The batch workloads: ``repro all --quick`` processes driven from outside."""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path
from statistics import median

import layers
from common import (
    MIB, ROOT, Completed, Deadline, Tally, program_env, repro_argv, run_child, tree_bytes,
)
from spans import TRACE_DIR_ENV

#: Rendered-stdout SHA-256 of ``repro all --quick`` per program seed.
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())

#: Extra ``repro all --quick`` flags of each batch workload.
FLAGS = {
    "quick-cold-jobs2": ("--jobs", "2", "--backend", "processes"),
    "quick-warm": (),
}
#: Set-up probes per run; ``setup_s`` is their median.
PROBES = 3
#: Fewest warm passes a run measures, whatever ``--seconds`` says.
MIN_WARM_PASSES = 3


class OutputCheck(Tally):
    """Fails a pass on a non-zero exit, or when its rendered stdout
    differs from the committed digest for its seed or, for a seed
    without one, from the run's first pass."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.expected = EXPECTED.get(str(seed))

    def check(self, done: Completed, label: str) -> None:
        digest = hashlib.sha256(done.stdout).hexdigest()
        if self.expected is None and done.returncode == 0:
            self.expected = digest
        if done.returncode != 0:
            self.add(False, f"{label}: exit {done.returncode}: {done.stderr.decode()[-300:]}")
        else:
            self.add(digest == self.expected,
                     f"{label}: rendered stdout sha256 {digest[:16]} != {self.expected[:16]}")


def setup_s(root: Path, deadline: Deadline) -> float:
    """Median start-up of the program: interpreter, import of
    ``repro.cli`` and the registries (``repro workloads``)."""
    walls = []
    for _ in range(PROBES):
        done = run_child(repro_argv("workloads"), root, program_env(), deadline.left())
        if done.returncode != 0:
            raise RuntimeError(f"repro workloads failed: {done.stderr.decode()[-300:]}")
        walls.append(done.wall_s)
    return median(walls)


def _pass(args, cwd: Path, deadline: Deadline, spans: Path | None = None) -> Completed:
    cwd.mkdir(parents=True, exist_ok=True)
    env = program_env()
    if spans is not None:
        spans.mkdir(parents=True, exist_ok=True)
        env[TRACE_DIR_ENV] = str(spans)
    argv = repro_argv("all", "--quick", *args, traced=spans is not None)
    return run_child(argv, cwd, env, deadline.left())


def run_cold(workload: str, root: Path, seed: int, seconds: int, trace: bool,
             deadline: Deadline) -> dict:
    """One cold pass from an empty cache (``--seconds`` does not apply)."""
    args = ("--seed", str(seed), *FLAGS[workload])
    check = OutputCheck(seed)
    setup = setup_s(root, deadline)
    done = _pass(args, root / "pass", deadline)
    check.check(done, "cold pass")
    cache_mib = tree_bytes(root / "pass" / ".repro-cache") / MIB
    shutil.rmtree(root / "pass")
    result = {
        "check": check,
        "metrics": {
            "setup_s": setup,
            "wall_s": done.wall_s,
            "cpu_s": done.cpu_s,
            "peak_rss_mib": done.peak_rss_mib,
            "cache_mib": cache_mib,
        },
    }
    if trace:
        traced = _pass(args, root / "traced", deadline, spans=root / "spans")
        check.check(traced, "traced cold pass")
        per_layer = layers.layer_metrics(layers.Spans(root / "spans"), 1, traced.wall_s)
        per_layer["trace_overhead_frac"] = traced.wall_s / done.wall_s - 1.0
        result["per_layer"] = per_layer
        result["traced_s"] = traced.wall_s
    return result


def run_warm(workload: str, root: Path, seed: int, seconds: int, trace: bool,
             deadline: Deadline) -> dict:
    """Warm passes over a cache one cold serial pass filled in set-up."""
    args = ("--seed", str(seed), *FLAGS[workload])
    check = OutputCheck(seed)
    setup = setup_s(root, deadline)
    cwd = root / "pass"
    fill_spans = root / "fill-spans" if trace else None
    fill = _pass(args, cwd, deadline, spans=fill_spans)
    check.check(fill, "cold fill pass")
    passes: list[Completed] = []
    started = time.monotonic()
    while len(passes) < MIN_WARM_PASSES or time.monotonic() - started < seconds:
        passes.append(_pass(args, cwd, deadline))
        check.check(passes[-1], f"warm pass {len(passes)}")
    result = {
        "check": check,
        "metrics": {
            "setup_s": setup,
            "wall_s": median(p.wall_s for p in passes),
            "cpu_s": median(p.cpu_s for p in passes),
            "peak_rss_mib": median(p.peak_rss_mib for p in passes),
            "cache_mib": tree_bytes(cwd / ".repro-cache") / MIB,
        },
    }
    if trace:
        traced = []
        for index in range(len(passes)):
            traced.append(_pass(args, cwd, deadline, spans=root / "spans"))
            check.check(traced[-1], f"traced warm pass {index + 1}")
        per_layer = layers.layer_metrics(
            layers.Spans(root / "spans"), len(traced), sum(p.wall_s for p in traced)
        )
        per_layer["trace_overhead_frac"] = (
            median(p.wall_s for p in traced) / result["metrics"]["wall_s"] - 1.0
        )
        per_layer.update(layers.fill_metrics(layers.Spans(fill_spans), fill.wall_s))
        result["per_layer"] = per_layer
        result["traced_s"] = sum(p.wall_s for p in traced) / len(traced)
    return result
