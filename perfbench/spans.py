"""Layer spans for the traced benchmark run, installed from outside.

The program is not edited: :func:`install` replaces public functions
and methods of the ``repro`` package with timing wrappers, in the
defining module and in every loaded module that imported the same
object.  Install before the scheduler creates a process pool; pool
workers are forked and inherit the wrappers.

Each process aggregates its spans in memory, per name: calls,
inclusive seconds, self seconds (a span minus its child spans on the
same thread), bytes, hits.  A pool worker appends its aggregate to
``spans-<pid>.jsonl`` after every cell, so a worker that dies loses at
most one cell; other processes write theirs at exit.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time

#: Environment variable naming the directory span files go to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Stage classes whose ``run`` is timed as ``api.stages.<name>.run``.
STAGE_CLASSES = (
    ("repro.api.stages", "ProfileStage"),
    ("repro.api.stages", "SignatureStage"),
    ("repro.api.stages", "ClusterStage"),
    ("repro.api.stages", "MiniBatchClusterStage"),
    ("repro.api.stages", "SelectStage"),
    ("repro.api.stages", "MeasureStage"),
    ("repro.api.stages", "ReconstructStage"),
    ("repro.api.stages", "ValidateStage"),
    ("repro.api.rank_stages", "RankifyStage"),
    ("repro.api.rank_stages", "CoalesceRanksStage"),
)


def _columnar_read_bytes(result) -> int:
    return result[1] if result else 0


def _write_bytes(result) -> int:
    return result


def _is_hit(result) -> int:
    return int(result is not None)


#: (span name, module, attribute path, bytes hook, hit hook).  An
#: attribute path ``Class.method`` wraps the method on the class.
TARGETS = (
    ("exec.scheduler.item", "repro.exec.scheduler", "_execute_item", None, None),
    ("exec.cells.execute", "repro.exec.cells", "execute_request", None, None),
    ("exec.store.load", "repro.exec.store", "StudyStore.load", None, _is_hit),
    ("exec.store.load", "repro.exec.store", "StudyStore.load_by_digest", None, _is_hit),
    ("exec.store.store", "repro.exec.store", "StudyStore.store", None, None),
    ("exec.columnar.read", "repro.exec.columnar", "read_payload_file", _columnar_read_bytes, None),
    ("exec.columnar.write", "repro.exec.columnar", "write_payload_atomic", _write_bytes, None),
    ("exec.columnar.write", "repro.exec.columnar", "TraceTileWriter.append", None, None),
    ("exec.columnar.write", "repro.exec.columnar", "TraceTileWriter.close", None, None),
    ("exec.stagestore.load", "repro.exec.stagestore", "StageStore.load", None, _is_hit),
    ("exec.stagestore.store", "repro.exec.stagestore", "StageStore.store", None, None),
    ("clustering.run_simpoint", "repro.clustering.simpoint", "run_simpoint", None, None),
    ("clustering.kmeans", "repro.clustering.kmeans", "kmeans", None, None),
    ("api.context.counters_on", "repro.api.context", "StageContext.counters_on", None, None),
    ("runtime.execute_distributed", "repro.runtime.distributed", "execute_distributed", None, None),
    ("runtime.execute_program", "repro.runtime.execution", "execute_program", None, None),
    ("hw.perf.true_counters", "repro.hw.perf", "PerfModel.true_counters", None, None),
    ("mem.reuse", "repro.mem.streaming", "ReuseStreamState.feed", None, None),
    ("mem.reuse", "repro.mem.reuse", "reuse_distances", None, None),
    ("mem.cache_sim", "repro.mem.cache", "CacheSimulator.simulate", None, None),
    ("mem.cache_sim", "repro.mem.cache", "CacheSimulator.miss_mask", None, None),
    ("mem.cache_sim", "repro.mem.cache", "CacheSimulator.miss_mask_tile", None, None),
    ("instrumentation.collect", "repro.instrumentation.streamed", "StreamedSignatureCollector.feed", None, None),
    ("instrumentation.collect", "repro.instrumentation.collector", "BarrierPointCollector.collect", None, None),
)


class Tracer:
    """Per-process span aggregator (thread-safe)."""

    def __init__(self, out_dir: str, role: str = "driver") -> None:
        self.out_dir = out_dir
        self.role = role
        self._lock = threading.Lock()
        self._local = threading.local()
        self._agg: dict[str, list] = {}
        self._counts: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, seconds: float, self_seconds: float,
               nbytes: int = 0, hits: int = 0) -> None:
        with self._lock:
            row = self._agg.get(name)
            if row is None:
                row = self._agg[name] = [0, 0.0, 0.0, 0, 0]
            row[0] += 1
            row[1] += seconds
            row[2] += self_seconds
            row[3] += nbytes
            row[4] += hits

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Keep the largest value seen for ``name``."""
        with self._lock:
            self._gauges[name] = max(self._gauges.get(name, value), value)

    def wrap(self, name: str, fn, bytes_hook=None, hit_hook=None):
        """A wrapper timing ``fn`` as span ``name``.

        A call nested directly inside a span of the same name (a method
        delegating to a sibling entry point of the same layer) is not
        counted twice.  Bytes reported by a span are also credited to
        its parent as ``<parent>.child_bytes``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            started = time.perf_counter()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                seconds = time.perf_counter() - started
                stack.pop()
                nbytes = bytes_hook(result) if returned and bytes_hook else 0
                hits = hit_hook(result) if returned and hit_hook else 0
                if stack:
                    stack[-1][0] += seconds
                    if nbytes:
                        self.count(f"{stack[-1][1]}.child_bytes", nbytes)
                self.record(name, seconds, seconds - frame[0], nbytes, hits)
                if name == "exec.scheduler.item" and self.role == "worker":
                    self.flush()

        return wrapper

    # ------------------------------------------------------------- output
    def flush(self) -> None:
        """Append this process's aggregate since the last flush."""
        with self._lock:
            if not (self._agg or self._counts or self._gauges):
                return
            line = json.dumps({
                "pid": os.getpid(),
                "role": self.role,
                "spans": self._agg,
                "counts": self._counts,
                "gauges": self._gauges,
            })
            self._agg, self._counts, self._gauges = {}, {}, {}
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def _after_fork(self) -> None:
        # A forked pool worker starts with a copy of the driver's
        # aggregate and call stack; both belong to the driver.
        self.role = "worker"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._agg, self._counts, self._gauges = {}, {}, {}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's alias of ``original`` at
    ``replacement`` (``from x import f`` copies survive a patch of x)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point named in :data:`TARGETS`."""
    for name, module_name, path, bytes_hook, hit_hook in TARGETS:
        owner, attr = _resolve(module_name, path)
        original = vars(owner)[attr]
        wrapped = tracer.wrap(name, original, bytes_hook, hit_hook)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            _rebind(original, wrapped)
    for module_name, class_name in STAGE_CLASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        if "run" in vars(cls):
            cls.run = tracer.wrap(f"api.stages.{cls.name}.run", vars(cls)["run"])
    _install_scheduler_run(tracer)
    _install_experiments(tracer)
    os.register_at_fork(after_in_child=tracer._after_fork)
    atexit.register(tracer.flush)


def _install_scheduler_run(tracer: Tracer) -> None:
    from repro.exec.scheduler import StudyScheduler

    timed = tracer.wrap("exec.scheduler.run", StudyScheduler.run)

    @functools.wraps(StudyScheduler.run)
    def run(self, requests):
        before = (self.stats.executed, self.stats.cache_hits)
        try:
            return timed(self, requests)
        finally:
            tracer.count("exec.scheduler.cells_executed",
                         self.stats.executed - before[0])
            tracer.count("exec.scheduler.cells_from_disk",
                         self.stats.cache_hits - before[1])
            if self.backend.name == "processes":
                tracer.gauge("exec.backends.jobs", self.backend.jobs)

    StudyScheduler.run = run


def _install_experiments(tracer: Tracer) -> None:
    """Artefact building and rendering: every experiment module's
    ``run`` and every ``render`` method defined in those modules."""
    import repro.cli

    for module in repro.cli._EXPERIMENTS.values():
        module.run = tracer.wrap("experiments.render", module.run)
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "render" in vars(value)
            ):
                value.render = tracer.wrap("experiments.render", vars(value)["render"])
