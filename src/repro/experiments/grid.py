"""Axis grids — does the representative region survive the job growing?

The paper's tables fix the parallel width (Table IV reports 8
threads); these artefacts sweep it along one declared
:class:`~repro.api.grid.Axis`:

* ``repro scaling`` (:data:`scaling`, the :data:`~repro.api.grid.THREADS`
  axis) — team widths 1, 2, 4, 8, 16 of a shared-memory run;
* ``repro ranks`` (:data:`ranks`, the :data:`~repro.api.grid.RANKS`
  axis) — 1, 2, 4, 8 MPI-style ranks, each a 2-thread OpenMP team on
  its own node.

One study cell is declared per (application, machine, value) over every
evaluated app and the three registered machines (plus any ingested
machines the config names), so the scheduler deduplicates and
parallelises the whole grid at once.  Shapes the machine or the x86_64
discovery machine cannot host scatter-first (16 threads on every
Table II machine) are rendered as explicit unsupported rows instead of
being scheduled.

Per application the table reports, per (machine, value): the wall
cycles, the speedup and parallel efficiency against the 1-wide run on
the same machine, the barrier points selected, and the barrier-region
CPI estimate against the full run's CPI — a representative region that
stops being representative shows up as a growing CPI error, not as a
missing row.  The rank table adds the **communication share** (the
slowest rank's network cycles — transfer plus busy-poll wait at
collectives — against the wall): a job that merely becomes
communication-bound shows a growing comm share with stable CPI error.

Grid cells are derivations over stage-cached artifacts and are
deliberately *not* persisted in the cell-level StudyStore
(:data:`repro.exec.cells.CELL_LEVEL_UNCACHED`): the heavy stages are
shared through the :class:`~repro.exec.stagestore.StageStore` — across
the three machines of one (app, value), and on the threads axis with
the crossarch cells' scalar half — so a re-render re-executes only
cheap reconstruction against stage-cache hits, which ``--verbose``
accounts for even under the ``processes`` backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.grid import (
    GRID_MACHINES,
    RANK_THREADS,
    RANKS,
    THREADS,
    Axis,
    GridCell,
    GridResult,
    run_grid_cell,
)
from repro.api.registry import machine_registry
from repro.exec.request import StudyRequest
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import (
    ExperimentConfig,
    default_config,
    grid_machines,
    register_config_machines,
)
from repro.util.tables import render_table
from repro.workloads.registry import EVALUATED_APPS

__all__ = [
    "AXES",
    "GridExperiment",
    "GridTable",
    "grid_request",
    "grid_cell",
    "scaling",
    "ranks",
]

#: Request kind → axis, for the one executor both kinds share.
AXES = {axis.kind: axis for axis in (THREADS, RANKS)}


def grid_request(axis: Axis, app: str, value: int, machine: str) -> StudyRequest:
    """Declare the cell for one (app, machine, value) of an axis.

    A rank cell carries its rank count as a parameter (an ``int``, so a
    served ``true`` and a batch ``1`` share one key) and the per-rank
    team width as the request's ``threads``.
    """
    ranks, threads = axis.shape(value)
    params = (("machine", machine),)
    if axis.distributed:
        params += (("ranks", int(ranks)),)
    return StudyRequest(kind=axis.kind, app=app, threads=threads, params=params)


def grid_cell(request: StudyRequest, config: ExperimentConfig) -> dict:
    """Executor for ``"scaling"`` and ``"ranks"`` cells (scheduler workers)."""
    from repro.exec.stagestore import stage_store_for

    register_config_machines(config)
    axis = AXES[request.kind]
    value = axis.value(request.param("ranks"), request.threads)
    cell = run_grid_cell(
        request.app,
        request.param("machine"),
        axis,
        value,
        config.pipeline_config(),
        store=stage_store_for(config),
    )
    return cell.to_payload()


@dataclass(frozen=True)
class GridTable:
    """One axis's artefact: one :class:`GridResult` per app."""

    axis: Axis
    results: list[GridResult]

    def result(self, app: str) -> GridResult:
        """The grid result of one application."""
        for result in self.results:
            if result.app == app:
                return result
        raise KeyError(f"no {self.axis.kind} result for {app!r}")

    def render(self) -> str:
        """One ASCII table per application, in evaluation order."""
        extra = tuple(header for header, _, _ in self.axis.extra_columns)
        headers = (
            ("Machine", self.axis.label, "Wall Mcyc")
            + extra
            + ("Speedup", "Eff (%)", "BPs", "CPI est/true", "CPI err (%)", "Note")
        )
        blocks = []
        for result in self.results:
            rows = [
                self._row(result, machine, value)
                for machine in result.machines
                for value in result.values
            ]
            title = self.axis.title.format(app=result.app, threads=RANK_THREADS)
            blocks.append(render_table(headers, rows, title=title))
        return "\n\n".join(blocks)

    def _row(self, result: GridResult, machine: str, value: int) -> tuple:
        cell = result.cells.get((machine, value))
        note = result.unsupported.get((machine, value))
        if note is None:
            note = "not computed" if cell is None else cell.failure
        if note:
            blank = (None,) * (len(self.axis.extra_columns) + 6)
            return (machine, value) + blank + (note,)
        speedup = result.speedup(machine, value)
        efficiency = result.efficiency_pct(machine, value)
        return (
            (machine, value, f"{cell.wall_mcycles:.2f}")
            + tuple(
                form.format(getattr(cell, attribute))
                for _, attribute, form in self.axis.extra_columns
            )
            + (
                f"{speedup:.2f}x" if speedup is not None else None,
                f"{efficiency:.1f}" if efficiency is not None else None,
                f"{cell.k}/{cell.total_barrier_points}",
                f"{cell.cpi_estimate:.3f} / {cell.cpi_true:.3f}",
                f"{cell.cpi_error_pct:.2f}",
                "",
            )
        )


class GridExperiment:
    """The scheduled apps × machines × values grid of one axis.

    Exposes the experiment-module protocol the CLI drives
    (:meth:`requests`, :meth:`build`, :meth:`run`); :data:`scaling` and
    :data:`ranks` are its two instances.
    """

    def __init__(self, axis: Axis) -> None:
        self.axis = axis

    def _machines(self, config: ExperimentConfig) -> tuple[str, ...]:
        register_config_machines(config)
        return grid_machines(config, GRID_MACHINES)

    def requests(self, config: ExperimentConfig) -> list[StudyRequest]:
        """Every supported cell of the apps × machines × values grid.

        The machine axis is the three built-ins plus any ingested
        machines the config names (``--machines`` / ``--machine-spec``).
        """
        machines = self._machines(config)
        return [
            grid_request(self.axis, app, value, machine)
            for app in EVALUATED_APPS
            for machine in machines
            for value in self.axis.values
            if self.axis.supports(machine_registry.get(machine), value)
        ]

    def build(self, results, config: ExperimentConfig) -> GridTable:
        """Assemble the tables from executed study cells."""
        machines = self._machines(config)
        cells: dict[str, dict[tuple[str, int], GridCell]] = {}
        for request, payload in results.items():
            if request.kind != self.axis.kind:
                continue
            cell = GridCell.from_payload(payload)
            value = self.axis.value(cell.ranks, cell.threads)
            cells.setdefault(cell.app, {})[(cell.machine, value)] = cell

        unsupported = self.axis.unsupported(
            tuple(machine_registry.get(machine) for machine in machines),
            self.axis.values,
        )
        return GridTable(
            axis=self.axis,
            results=[
                GridResult(
                    app=app,
                    machines=machines,
                    values=self.axis.values,
                    cells=cells.get(app, {}),
                    unsupported=dict(unsupported),
                )
                for app in EVALUATED_APPS
            ],
        )

    def run(
        self,
        config: ExperimentConfig | None = None,
        scheduler: StudyScheduler | None = None,
    ) -> GridTable:
        """Build the tables from the scheduled grid."""
        config = config or default_config()
        scheduler = scheduler or StudyScheduler(config)
        return self.build(scheduler.run(self.requests(config)), config)


#: ``repro scaling`` — the strong-scaling grid over team widths.
scaling = GridExperiment(THREADS)

#: ``repro ranks`` — the distributed-memory grid over rank counts.
ranks = GridExperiment(RANKS)
