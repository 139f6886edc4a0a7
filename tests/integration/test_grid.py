"""Integration tests: the axis-generic grid study, on both axes.

One :class:`~repro.api.grid.GridStudy` serves the strong-scaling
(:data:`~repro.api.grid.THREADS`) and the distributed-memory
(:data:`~repro.api.grid.RANKS`) questions, so every property they share
is checked once per axis:

* the public API composes the axis's registered stages, splits the
  grid into supported cells and explicit unsupported rows, and its
  speedup/efficiency/CPI/communication accounting is self-consistent;
* discovery-side stage payloads are shared across machines through the
  stage store;
* ``repro scaling`` / ``repro ranks`` payloads and rendering are
  byte-identical across the serial, threads and processes backends,
  and a re-run from the stage cache reproduces them;
* request identity (scheduler dedup, serve digests, checkpoint
  journals) is pinned to the literal keys the grids have always used.
"""

from dataclasses import replace

import pytest

from repro.api import (
    RANK_THREADS,
    RANKS,
    THREADS,
    GridCell,
    GridStudy,
    PipelineConfig,
    run_grid_cell,
)
from repro.exec.cells import CELL_KINDS, CELL_LEVEL_UNCACHED
from repro.exec.scheduler import StudyScheduler
from repro.exec.stagestore import StageStore
from repro.experiments.config import default_config
from repro.experiments.grid import grid_request, ranks, scaling
from repro.hw.machines import APM_XGENE, INTEL_I7_3770
from repro.hw.measure import MeasurementProtocol

FAST = PipelineConfig(
    discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
)

#: A small grid: 2 machines x values (1, 2), one app — fast but real.
MACHINES = (INTEL_I7_3770.name, APM_XGENE.name)

#: Axis → the scheduled experiment that renders it.
EXPERIMENTS = {THREADS.kind: scaling, RANKS.kind: ranks}

#: Axis → the stages that run on the x86_64 discovery machine.
DISCOVERY_STAGES = {
    THREADS.kind: ("profile", "signature", "cluster", "select"),
    RANKS.kind: ("rankify", "coalesce_ranks", "cluster", "select"),
}

#: Axis → a string only its rendered small grid contains: the 16-wide
#: column's unsupported row, or the 1-rank baseline's zero comm bill.
RENDER_MARKERS = {
    THREADS.kind: "exceeds 8 hardware contexts",
    RANKS.kind: "0.00",
}

both_axes = pytest.mark.parametrize(
    "axis", (THREADS, RANKS), ids=lambda axis: axis.kind
)


def _small_requests(axis, apps=("MCB",), values=(1, 2)):
    return [
        grid_request(axis, app, value, machine)
        for app in apps
        for machine in MACHINES
        for value in values
    ]


#: One context per node: a 2-thread rank team cannot be placed on it.
TINY = replace(APM_XGENE, name="Tiny", cores=1)

#: (axis, machines, values, supported grid, unsupported reasons).
SPLITS = (
    pytest.param(
        THREADS, MACHINES, (1, 2, 16),
        [
            (INTEL_I7_3770.name, 1),
            (INTEL_I7_3770.name, 2),
            (APM_XGENE.name, 1),
            (APM_XGENE.name, 2),
        ],
        {
            (INTEL_I7_3770.name, 16): "exceeds 8 hardware contexts",
            (APM_XGENE.name, 16): "exceeds 8 hardware contexts",
        },
        id="scaling",
    ),
    pytest.param(
        RANKS, (TINY,), (1, 4),
        [],
        {
            ("Tiny", 1): "team of 2 exceeds 1 hardware contexts per node",
            ("Tiny", 4): "team of 2 exceeds 1 hardware contexts per node",
        },
        id="ranks",
    ),
)


class TestGridStudyApi:
    @pytest.mark.parametrize("axis, machines, values, grid, unsupported", SPLITS)
    def test_grid_and_unsupported_split(
        self, axis, machines, values, grid, unsupported
    ):
        study = GridStudy(
            "MCB", axis, machines=machines, values=values, config=FAST
        )
        assert [(m.name, v) for m, v in study.grid()] == grid
        assert study.unsupported() == unsupported

    def test_discovery_machine_bounds_the_api_grid(self):
        # A 32-context target hosts 16 threads, but discovery runs on
        # the 8-context x86_64 machine: the cell must be reported as
        # unsupported, exactly as the repro scaling table renders it,
        # instead of being scheduled and dying mid-pipeline.
        big = replace(APM_XGENE, name="Big", cores=32)
        study = GridStudy("MCB", THREADS, machines=(big,), values=(16,), config=FAST)
        assert study.grid() == []
        assert study.unsupported() == {
            ("Big", 16): "x86_64 discovery (Intel Core i7-3770) "
            "exceeds 8 hardware contexts"
        }
        result = study.run()
        assert result.cells == {}
        assert result.unsupported == study.unsupported()

    @both_axes
    def test_run_reports_speedup_comm_and_cpi(self, axis, tmp_path):
        study = GridStudy("MCB", axis, machines=MACHINES, values=(1, 2), config=FAST)
        result = study.run(StageStore(tmp_path / "stages"))
        assert result.speedup(INTEL_I7_3770.name, 1) == pytest.approx(1.0)
        assert result.efficiency_pct(INTEL_I7_3770.name, 1) == pytest.approx(100.0)
        base = result.cell(INTEL_I7_3770.name, 1)
        assert base.comm_mcycles == 0.0 and base.comm_pct == 0.0
        for machine in MACHINES:
            cell = result.cell(machine, 2)
            assert (cell.ranks, cell.threads) == axis.shape(2)
            if axis.distributed:
                assert cell.threads == RANK_THREADS
                assert cell.comm_mcycles > 0.0
                assert 0.0 < cell.comm_pct < 100.0
            else:
                assert cell.comm_mcycles == 0.0 and cell.comm_pct == 0.0
            assert 1.0 < result.speedup(machine, 2) < 4.0
            assert cell.k >= 1
            assert cell.cpi_true > 0 and cell.cpi_estimate > 0
            assert cell.cpi_error_pct < 50.0
        # 8 was not requested: speedup for absent values is None.
        assert result.speedup(INTEL_I7_3770.name, 8) is None

    @both_axes
    def test_discovery_stages_shared_across_machines(self, axis, tmp_path):
        # Both machines at the same (app, value) reuse the x86_64-side
        # stage payloads: the second cell hits discovery through select.
        store = StageStore(tmp_path / "stages")
        run_grid_cell("MCB", INTEL_I7_3770.name, axis, 2, FAST, store)
        store.stats.reset()
        run_grid_cell("MCB", APM_XGENE.name, axis, 2, FAST, store)
        for stage in DISCOVERY_STAGES[axis.kind]:
            assert store.stats.hit_count(stage) == 1, stage
        assert store.stats.miss_count("measure") == 1

    @both_axes
    def test_cell_payload_roundtrip(self, axis):
        cell = run_grid_cell("MCB", INTEL_I7_3770.name, axis, 2, FAST)
        assert GridCell.from_payload(cell.to_payload()) == cell


class TestGridDeterminism:
    @both_axes
    def test_table_identical_across_backends(self, axis, tmp_path):
        requests = _small_requests(axis)
        renders = {}
        payloads = {}
        for backend in ("serial", "threads", "processes"):
            config = default_config(
                "quick",
                cache_dir=str(tmp_path / backend),
                jobs=2,
                backend=backend,
            )
            scheduler = StudyScheduler(config)
            results = scheduler.run(requests)
            payloads[backend] = results
            renders[backend] = EXPERIMENTS[axis.kind].build(results, config).render()
        assert payloads["serial"] == payloads["threads"] == payloads["processes"]
        assert renders["serial"] == renders["threads"] == renders["processes"]
        assert RENDER_MARKERS[axis.kind] in renders["serial"]

    @both_axes
    def test_rerender_identical_from_stage_cache(self, axis, tmp_path):
        requests = _small_requests(axis)
        config = default_config("quick", cache_dir=str(tmp_path / "cache"))
        cold = StudyScheduler(config).run(requests)
        warm = StudyScheduler(config).run(requests)
        assert warm == cold


class TestGridIdentity:
    """What scheduler dedup, serve digests and checkpoints key on."""

    def test_request_keys_are_pinned(self):
        machine = INTEL_I7_3770.name
        assert grid_request(THREADS, "MCB", 2, machine).key() == (
            "scaling", "MCB", 2, (("machine", "Intel Core i7-3770"),)
        )
        assert grid_request(RANKS, "MCB", 4, machine).key() == (
            "ranks",
            "MCB",
            2,
            (("machine", "Intel Core i7-3770"), ("ranks", 4)),
        )

    def test_both_kinds_share_one_uncached_executor(self):
        assert {"scaling", "ranks"} <= CELL_LEVEL_UNCACHED
        assert CELL_KINDS["scaling"] == CELL_KINDS["ranks"]

    def test_pre_grid_scaling_payload_still_decodes(self):
        # A checkpoint journal parked by an older run holds scaling
        # payloads without the rank/comm fields; --resume must read them.
        old = {
            "app": "MCB",
            "machine": "Intel Core i7-3770",
            "threads": 2,
            "k": 3,
            "total_barrier_points": 40,
            "wall_mcycles": 1.5,
            "instructions": 2.0e6,
            "cpi_true": 0.9,
            "cpi_estimate": 0.91,
            "cpi_error_pct": 1.1,
            "failure": "",
        }
        cell = GridCell.from_payload(old)
        assert (cell.ranks, cell.comm_mcycles, cell.comm_pct) == (1, 0.0, 0.0)
        assert cell.to_payload() == {
            **old, "ranks": 1, "comm_mcycles": 0.0, "comm_pct": 0.0
        }
