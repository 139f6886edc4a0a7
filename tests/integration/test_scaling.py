"""Integration tests: stage-cache statistics of the strong-scaling grid.

Stage-cache hit/miss counters survive the ``processes`` backend (the
scheduler merges worker deltas into the parent store), so a fully
stage-cached parallel re-render of the scaling grid reports its traffic
instead of "no stage cache traffic".  The properties the scaling grid
shares with the rank grid are checked once per axis in
``test_grid.py``.
"""

from repro.api import THREADS
from repro.exec.scheduler import StudyScheduler
from repro.exec.stagestore import stage_store_for
from repro.experiments.config import default_config
from repro.experiments.grid import grid_request
from repro.hw.machines import APM_XGENE, INTEL_I7_3770

#: A small grid: 2 machines x widths, one app — fast but real.
MACHINES = (INTEL_I7_3770.name, APM_XGENE.name)


def _small_requests(apps=("MCB",), thread_counts=(1, 2)):
    return [
        grid_request(THREADS, app, threads, machine)
        for app in apps
        for machine in MACHINES
        for threads in thread_counts
    ]


def _grid_config(tmp_path, **overrides):
    return default_config(
        "quick", cache_dir=str(tmp_path / "cache"), **overrides
    )


class TestProcessBackendStageStats:
    def test_worker_deltas_merge_into_parent(self, tmp_path):
        # Scaling cells bypass the cell-level store, so a re-render
        # re-executes them against the stage cache; under the processes
        # backend the hit counters used to stay in the workers and the
        # parent reported "no stage cache traffic".
        requests = _small_requests()
        config = _grid_config(tmp_path, jobs=2, backend="processes")

        StudyScheduler(config).run(requests)  # populate the stage cache
        parent_stats = stage_store_for(config).stats
        parent_stats.reset()

        scheduler = StudyScheduler(config)
        scheduler.run(requests)
        assert scheduler.stats.executed == len(requests)
        for stage in ("profile", "signature", "cluster", "select", "measure"):
            assert parent_stats.hit_count(stage) > 0, stage
        assert "no stage cache traffic" not in parent_stats.describe()

    def test_serial_backend_not_double_counted(self, tmp_path):
        # Same-pid execution increments the parent store directly; the
        # returned delta must not be merged a second time.
        requests = _small_requests(thread_counts=(1,))
        config = _grid_config(tmp_path, backend="serial")

        StudyScheduler(config).run(requests)
        parent_stats = stage_store_for(config).stats
        parent_stats.reset()

        StudyScheduler(config).run(requests)
        # 2 machines x 1 width: discovery hits twice (once per cell),
        # measure hits once per cell.
        assert parent_stats.hit_count("measure") == len(requests)
        assert parent_stats.hit_count("profile") == len(requests)

    def test_stats_snapshot_delta_merge_roundtrip(self):
        from repro.exec.stagestore import StageCacheStats

        stats = StageCacheStats()
        stats.hits["profile"] += 2
        before = stats.snapshot()
        stats.hits["profile"] += 1
        stats.misses["cluster"] += 4
        delta = stats.delta_since(before)
        assert delta["hits"] == {"profile": 1}
        assert delta["misses"] == {"cluster": 4}
        # Profiling counter families ride the same delta (empty here).
        assert delta["bytes_decoded"] == {} and delta["run_seconds"] == {}

        other = StageCacheStats()
        other.merge(delta)
        assert other.hit_count("profile") == 1
        assert other.miss_count("cluster") == 4
        other.merge({"hits": {"profile": 2}})
        assert other.hit_count("profile") == 3
