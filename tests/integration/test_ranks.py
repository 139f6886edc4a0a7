"""Integration tests: the rank-only parts of the distributed-memory grid.

Covers what the rank axis adds on top of the properties every grid
shares (those are checked once per axis in ``test_grid.py``):

* the rank-aware stage graph is registered, and collective operations
  induce the same region boundaries on every rank, end to end through
  the rank stages (every rank's observations cover the same barrier
  points);
* a pre-wrapped rank job must match the cell's rank count;
* the rank count and the communication schedule are part of the
  stage-cache identity;
* the communication bill rides the cached measure stage.
"""

import numpy as np
import pytest

from repro.api import RANK_THREADS, RANKS, PipelineConfig, default_rank_stages, run_grid_cell
from repro.api.registry import stage_registry
from repro.exec.stagestore import StageStore
from repro.hw.machines import INTEL_I7_3770
from repro.hw.measure import MeasurementProtocol

FAST = PipelineConfig(
    discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
)


class TestRankStages:
    def test_rank_stages_registered(self):
        assert "rankify" in stage_registry
        assert "coalesce_ranks" in stage_registry
        names = [stage.name for stage in default_rank_stages()]
        assert names == [
            "rankify", "coalesce_ranks", "cluster", "select",
            "measure", "reconstruct", "validate",
        ]

    def test_rankify_requires_distributed_workload(self):
        from repro.api.builder import StagePipeline
        from repro.workloads.registry import create

        pipeline = StagePipeline(
            create("MCB"), 2, False, FAST, stages=default_rank_stages()
        )
        with pytest.raises(TypeError, match="DistributedWorkload"):
            pipeline.run()

    def test_every_rank_observes_the_same_region_boundaries(self):
        from repro.api.builder import StagePipeline
        from repro.isa.descriptors import ISA
        from repro.workloads.distributed import DistributedWorkload

        job = DistributedWorkload("MCB", ranks=4)
        pipeline = StagePipeline(
            job, 2, False, FAST,
            stages=default_rank_stages(), targets=(INTEL_I7_3770,),
        )
        run = pipeline.run()
        trace = run.context.trace(ISA.X86_64)
        boundaries = trace.region_boundaries(0)
        assert boundaries[-1] == trace.n_barrier_points - 1
        for rank in range(4):
            assert trace.region_boundaries(rank) == boundaries
        # End to end: every rank's observations cover the same barrier
        # points, so the coalesced signatures have one row per bp.
        for per_rank in run.context.require("rank_observations"):
            assert len(per_rank) == 4
            for obs in per_rank:
                assert obs.n_barrier_points == trace.n_barrier_points
        for sig in run.context.require("signatures"):
            assert sig.n_barrier_points == trace.n_barrier_points


class TestRankStudyApi:
    def test_prewrapped_workload_rank_mismatch_rejected(self):
        from repro.workloads.distributed import DistributedWorkload

        job = DistributedWorkload("MCB", ranks=2)
        with pytest.raises(ValueError, match="wrapped for 2 ranks"):
            run_grid_cell(job, INTEL_I7_3770.name, RANKS, 4, FAST)


class TestRankDeterminism:
    def test_phase_count_is_part_of_the_cache_identity(self, tmp_path):
        # Jobs with different communication schedules must never share
        # stage-cache entries: the phase count enters the rankify cache
        # key and relocates the whole digest chain.
        from repro.api.builder import StagePipeline
        from repro.workloads.distributed import DistributedWorkload

        store = StageStore(tmp_path / "stages")
        for phases in (16, 4):
            job = DistributedWorkload("MCB", ranks=2, phases=phases)
            pipeline = StagePipeline(
                job, RANK_THREADS, False, FAST,
                stages=default_rank_stages(), targets=(INTEL_I7_3770,),
            )
            pipeline.run(store)
        assert store.stats.hit_count("rankify") == 0
        assert store.stats.miss_count("rankify") == 2
        assert store.stats.hit_count("measure") == 0

    def test_rank_digests_do_not_collide_with_shared_memory(self, tmp_path):
        # A rank pipeline and a plain pipeline at the same (app, threads,
        # seed) must address different stage-cache entries — the rank
        # count is part of the workload identity.
        from repro.api.builder import build_pipeline

        store = StageStore(tmp_path / "stages")
        run_grid_cell("MCB", INTEL_I7_3770.name, RANKS, 2, FAST, store)
        store.stats.reset()
        build_pipeline("MCB", threads=RANK_THREADS, config=FAST).run(store)
        assert store.stats.hit_count("profile") == 0
        assert store.stats.miss_count("profile") == 1


class TestCachedCommBill:
    """The comm bill rides the measure stage, so warm cells skip the model."""

    def test_warm_cell_does_no_trace_or_perf_model_work(
        self, tmp_path, monkeypatch
    ):
        store = StageStore(tmp_path / "stages")
        cold = run_grid_cell("MCB", INTEL_I7_3770.name, RANKS, 2, FAST, store)

        def _forbidden(*args, **kwargs):
            raise AssertionError("a warm rank cell re-ran the whole program")

        monkeypatch.setattr(
            "repro.runtime.distributed.execute_distributed", _forbidden
        )
        monkeypatch.setattr("repro.hw.perf.PerfModel.true_counters", _forbidden)
        warm = run_grid_cell("MCB", INTEL_I7_3770.name, RANKS, 2, FAST, store)
        assert warm.to_payload() == cold.to_payload()
        assert warm == cold
        assert cold.comm_mcycles > 0.0

    @staticmethod
    def _roundtrip(run):
        from repro.api.codec import decode_payload, encode_payload
        from repro.api.context import StageContext
        from repro.api.stages import MeasureStage

        stage = MeasureStage()
        meta, arrays = encode_payload(stage.encode(run.context))
        fresh = StageContext(run.context.app, run.context.threads)
        stage.decode(decode_payload(meta, arrays), fresh)
        return fresh.require("measurements")

    def test_measure_payload_carries_per_rank_comm_cycles(self):
        from repro.api.builder import StagePipeline
        from repro.workloads.distributed import DistributedWorkload

        run = StagePipeline(
            DistributedWorkload("MCB", ranks=2), RANK_THREADS, False, FAST,
            stages=default_rank_stages(), targets=(INTEL_I7_3770,),
        ).run()
        counters = run.context.counters_on(INTEL_I7_3770.isa, INTEL_I7_3770)
        comm = self._roundtrip(run)[INTEL_I7_3770.name]["comm_cycles"]
        assert comm.shape == (2,)
        assert (comm > 0.0).all()
        np.testing.assert_array_equal(comm, counters.comm_cycles.sum(axis=0))

    def test_shared_memory_measure_payload_has_zero_comm(self):
        from repro.api.builder import build_pipeline

        run = build_pipeline("MCB", threads=2, config=FAST).run()
        for entry in self._roundtrip(run).values():
            np.testing.assert_array_equal(entry["comm_cycles"], np.zeros(1))
