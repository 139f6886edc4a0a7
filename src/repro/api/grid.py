"""Axis sweeps on the stage API: one grid study over a declared axis.

The paper evaluates representative regions at a fixed parallel width
per table; a :class:`GridStudy` turns the width into a study axis and
asks the follow-up question — *does the representative region stay
representative as the parallel job grows?* — by sweeping one workload
across axis values × machines through the registered stage graph.

Two axes are declared, two decompositions of the same strong-scaling
question:

* :data:`THREADS` — the OpenMP team width of a shared-memory run
  (profile → signature → cluster → select → measure → reconstruct →
  validate).
* :data:`RANKS` — the number of MPI-style ranks of a distributed job,
  each a :data:`RANK_THREADS`-wide team on its own node.  ``rankify`` /
  ``coalesce_ranks`` (see :mod:`repro.api.rank_stages`) replace the
  first two stages; from clustering onward the canonical stages run on
  the coalesced artifacts, and measurement prices the network with the
  machine's :class:`~repro.hw.network.NetworkSpec`.

Per (machine, value) cell the study reports:

* **wall cycles** — the slowest hardware context's mean clean-ROI cycle
  count, which under barrier (and collective) synchronisation is the
  region's wall-clock;
* **speedup / parallel efficiency** — wall(1) / wall(value), and that
  divided by the value (computed by :class:`GridResult` from the cells);
* **barrier-region CPI error** — the relative error of the CPI derived
  from the best barrier point set's reconstruction against the full
  run's CPI: the scaling-robustness figure of merit;
* **communication share** — the slowest rank's network cycles
  (transfer + busy-poll wait) as a fraction of the wall, which
  separates "the region stopped being representative" from "the job
  became communication-bound".  Shared-memory cells carry a zero bill.

Discovery always runs on the x86_64 machine (the paper's Section V-A
rule) at the cell's job shape, so a shape that either the target or
the discovery machine cannot host scatter-first is reported as
unsupported (:meth:`GridStudy.unsupported`) rather than scheduled —
oversubscription is outside the paper's pinning protocol (see
:meth:`repro.hw.machines.Machine.validate_threads`).

The scheduled multi-application form (``repro scaling`` / ``repro
ranks``) lives in :mod:`repro.experiments.grid`; this module is the
single-workload public API and the computation both share.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.api.builder import PipelineRun, StagePipeline, _resolve_target, _resolve_workload
from repro.api.rank_stages import CoalesceRanksStage, RankifyStage
from repro.api.types import PipelineConfig
from repro.exec.stagestore import StageStore
from repro.hw.machines import APM_XGENE, ARMV8_IN_ORDER, INTEL_I7_3770, Machine, machine_for
from repro.hw.pmu import CYCLES, INSTRUCTIONS
from repro.isa.descriptors import ISA
from repro.workloads.distributed import DistributedWorkload

__all__ = [
    "GRID_MACHINES",
    "RANK_THREADS",
    "RANKS",
    "THREADS",
    "Axis",
    "GridCell",
    "GridResult",
    "GridStudy",
    "default_rank_stages",
    "run_grid_cell",
]

#: Default machine axis: both Table II platforms plus the Section VIII
#: in-order core, all taken from the open machine registry.
GRID_MACHINES = (INTEL_I7_3770.name, APM_XGENE.name, ARMV8_IN_ORDER.name)

#: OpenMP team width of every rank — the hybrid's MPI×OpenMP shape.
#: Two threads keeps the largest job (8 ranks × 2 threads) at 16
#: contexts while still exercising rank-local barrier behaviour.
RANK_THREADS = 2


def default_rank_stages() -> list:
    """The rank-aware stage graph, from the live registries.

    ``rankify`` and ``coalesce_ranks`` replace ``profile`` and
    ``signature``; the rest is the canonical shared-memory tail, so
    registered third-party replacements (a custom ``cluster``) flow
    through rank studies unchanged.
    """
    from repro.api.registry import stage_registry

    tail = ("cluster", "select", "measure", "reconstruct", "validate")
    return [RankifyStage(), CoalesceRanksStage()] + [
        stage_registry.get(name)() for name in tail
    ]


@dataclass(frozen=True)
class Axis:
    """One sweepable dimension of the parallel job.

    Attributes
    ----------
    kind:
        Study-request kind of the axis's cells (``"scaling"`` /
        ``"ranks"``), also the CLI artefact name.
    label:
        Column header of the axis value.
    values:
        The sweep's default values.
    distributed:
        False: a value is the team width of one shared-memory run.
        True: a value is a rank count of :data:`RANK_THREADS`-wide
        teams, run through :func:`default_rank_stages`.
    reason:
        Why a machine cannot host a shape; formatted with the machine's
        ``contexts`` and the per-rank ``threads``.
    title:
        Table title, formatted with ``app`` and ``threads``.
    extra_columns:
        ``(header, GridCell attribute, format)`` of the columns the
        axis's table adds after the wall cycles.
    """

    kind: str
    label: str
    values: tuple[int, ...]
    distributed: bool
    reason: str
    title: str
    extra_columns: tuple[tuple[str, str, str], ...] = ()

    def shape(self, value: int) -> tuple[int, int]:
        """``(ranks, threads per rank)`` of the job at one axis value."""
        return (value, RANK_THREADS) if self.distributed else (1, value)

    def value(self, ranks: int, threads: int) -> int:
        """The axis value of a job shape (the inverse of :meth:`shape`)."""
        return ranks if self.distributed else threads

    def unsupported_reason(self, machine: Machine, value: int) -> str:
        """Why a cell cannot be placed, or ``""`` when it can.

        Both the target and the x86_64 discovery machine must host the
        job: discovery runs there at the cell's shape, so a shape it
        cannot host is unschedulable for *any* target.
        """
        ranks, threads = self.shape(value)
        discovery = machine_for(ISA.X86_64)
        for host, prefix in (
            (machine, ""),
            (discovery, f"x86_64 discovery ({discovery.name}) "),
        ):
            if not host.supports_hybrid(ranks, threads):
                return prefix + self.reason.format(
                    contexts=host.max_threads, threads=threads
                )
        return ""

    def supports(self, machine: Machine, value: int) -> bool:
        """Whether the target and the discovery machine host the job."""
        return not self.unsupported_reason(machine, value)

    def unsupported(
        self, machines: tuple[Machine, ...], values: tuple[int, ...]
    ) -> dict[tuple[str, int], str]:
        """(machine name, value) → reason, for every unplaceable cell."""
        reasons = {
            (machine.name, value): self.unsupported_reason(machine, value)
            for machine in machines
            for value in values
        }
        return {cell: reason for cell, reason in reasons.items() if reason}

    def pipeline(
        self, app, value: int, config: PipelineConfig, targets: tuple[Machine, ...]
    ) -> StagePipeline:
        """The stage graph of one axis value, measured on ``targets``."""
        ranks, threads = self.shape(value)
        if not self.distributed:
            return StagePipeline(app, threads, False, config, targets=targets)
        if getattr(app, "distributed", False):
            if app.ranks != ranks:
                raise ValueError(
                    f"workload is wrapped for {app.ranks} ranks but the cell "
                    f"asks for {ranks}"
                )
            job = app
        else:
            job = DistributedWorkload(app, ranks)
        return StagePipeline(
            job, threads, False, config,
            stages=default_rank_stages(), targets=targets,
        )


#: The strong-scaling axis.  16 exceeds every Table II machine's
#: hardware contexts and renders as an unsupported row — the sweep
#: states its own applicability limit instead of hiding it.
THREADS = Axis(
    kind="scaling",
    label="Threads",
    values=(1, 2, 4, 8, 16),
    distributed=False,
    reason="exceeds {contexts} hardware contexts",
    title="Strong scaling — {app} (scalar binaries, x86_64 discovery)",
)

#: The distributed-memory axis (mirroring the paper's 1/2/4/8 threads).
#: Ranks land one per node, so only the per-rank team can be unplaceable.
RANKS = Axis(
    kind="ranks",
    label="Ranks",
    values=(1, 2, 4, 8),
    distributed=True,
    reason="team of {threads} exceeds {contexts} hardware contexts per node",
    title=(
        "Distributed ranks — {app} ({threads} threads/rank, scalar "
        "binaries, x86_64 discovery)"
    ),
    extra_columns=(
        ("Comm Mcyc", "comm_mcycles", "{:.2f}"),
        ("Comm %", "comm_pct", "{:.1f}"),
    ),
)


@dataclass(frozen=True)
class GridCell:
    """One (application, machine, axis value) point of a grid study.

    Attributes
    ----------
    app / machine / threads:
        The cell's coordinates: base application name, machine, and the
        team width (per rank, for a rank cell).
    k / total_barrier_points:
        Barrier points selected by the best (lowest primary error) set,
        and the total dynamic barrier points (per rank).
    wall_mcycles:
        Slowest hardware context's mean clean-ROI cycles, in millions —
        the job's wall-clock under barrier + collective synchronisation.
    instructions:
        Mean clean-ROI instructions summed over every context.
    cpi_true / cpi_estimate / cpi_error_pct:
        Aggregate CPI of the full run, of the barrier-point
        reconstruction, and ``100 × |estimate - true| / true``.
    failure:
        Non-empty when the methodology could not be applied on this
        machine (barrier-sequence mismatch); every numeric field is
        zero in that case.
    ranks:
        The job's rank count (1 for a shared-memory cell).
    comm_mcycles:
        The slowest rank's network cycles (transfer + busy-poll wait),
        in millions, from the noise-free model — the communication bill.
    comm_pct:
        ``100 × comm_mcycles / wall_mcycles``.
    """

    app: str
    machine: str
    threads: int
    k: int
    total_barrier_points: int
    wall_mcycles: float
    instructions: float
    cpi_true: float
    cpi_estimate: float
    cpi_error_pct: float
    failure: str = ""
    ranks: int = 1
    comm_mcycles: float = 0.0
    comm_pct: float = 0.0

    def to_payload(self) -> dict:
        """JSON-shaped payload for the scheduler / process boundary."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "GridCell":
        """Rebuild a cell from :meth:`to_payload` output."""
        return cls(**payload)


def _cell_from_run(
    run: PipelineRun, app_name: str, machine: Machine, ranks: int, threads: int
) -> GridCell:
    """Derive one machine's cell from an executed stage graph.

    Picks the lowest primary-error barrier point set of the run and
    derives the measured wall cycles (slowest context's clean-ROI
    cycles), total instructions, the true/reconstructed CPI and the
    communication bill the measure stage recorded (zero for a
    shared-memory trace).
    """
    evaluations = run.evaluations.get(machine.name)
    if evaluations is None:
        # The methodology failed on this machine: zeros and the reason.
        return GridCell(
            app_name, machine.name, threads, k=0, total_barrier_points=0,
            wall_mcycles=0.0, instructions=0.0, cpi_true=0.0,
            cpi_estimate=0.0, cpi_error_pct=0.0,
            failure=run.failures[machine.name], ranks=ranks,
        )

    best = min(
        range(len(evaluations)),
        key=lambda i: evaluations[i].report.primary_error,
    )
    selection = evaluations[best].selection
    measurement = run.context.require("measurements")[machine.name]
    reference = measurement["reference"]
    estimate = run.context.require("estimates")[machine.name][best]["totals"]

    wall_cycles = float(reference[:, CYCLES].max())
    instructions = float(reference[:, INSTRUCTIONS].sum())
    cpi_true = float(reference[:, CYCLES].sum()) / instructions
    cpi_estimate = float(estimate[:, CYCLES].sum()) / float(
        estimate[:, INSTRUCTIONS].sum()
    )
    comm_cycles = float(measurement["comm_cycles"].max())
    return GridCell(
        app=app_name,
        machine=machine.name,
        threads=threads,
        k=selection.k,
        total_barrier_points=selection.n_barrier_points,
        wall_mcycles=wall_cycles / 1e6,
        instructions=instructions,
        cpi_true=cpi_true,
        cpi_estimate=cpi_estimate,
        cpi_error_pct=100.0 * abs(cpi_estimate - cpi_true) / cpi_true,
        ranks=ranks,
        comm_mcycles=comm_cycles / 1e6,
        comm_pct=100.0 * comm_cycles / wall_cycles if wall_cycles else 0.0,
    )


def _app_name(app) -> str:
    """The base application name of a (possibly rank-wrapped) workload."""
    return app.base.name if getattr(app, "distributed", False) else app.name


def run_grid_cell(
    workload,
    machine,
    axis: Axis,
    value: int,
    config: PipelineConfig | None = None,
    store: StageStore | None = None,
) -> GridCell:
    """Execute one grid cell through the axis's stage graph.

    Example
    -------
    >>> from repro.api import RANKS, THREADS, PipelineConfig, run_grid_cell
    >>> from repro.hw.measure import MeasurementProtocol
    >>> fast = PipelineConfig(
    ...     discovery_runs=2, protocol=MeasurementProtocol(repetitions=3)
    ... )
    >>> cell = run_grid_cell("MCB", "Intel Core i7-3770", THREADS, 2, fast)
    >>> cell.threads, cell.ranks, cell.k >= 1, cell.comm_mcycles
    (2, 1, True, 0.0)
    >>> cell = run_grid_cell("MCB", "Intel Core i7-3770", RANKS, 2, fast)
    >>> cell.ranks, cell.threads, cell.comm_mcycles > 0
    (2, 2, True)

    Discovery runs on x86_64 (the paper's Section V-A rule) at the
    cell's job shape; measurement, reconstruction and validation target
    the cell's machine.  With a :class:`StageStore`, the x86_64-side
    stage payloads are shared by every machine at the same (app,
    value) — and, on the threads axis, with the crossarch cells'
    scalar half — so a grid sweep executes each discovery exactly once.
    A rank cell accepts a workload already wrapped in
    :class:`~repro.workloads.distributed.DistributedWorkload` for the
    same rank count.
    """
    app = _resolve_workload(workload)
    machine = _resolve_target(machine)
    pipeline = axis.pipeline(app, value, config or PipelineConfig(), (machine,))
    return _cell_from_run(pipeline.run(store), _app_name(app), machine, *axis.shape(value))


@dataclass(frozen=True)
class GridResult:
    """All cells of one application's grid study.

    Attributes
    ----------
    app:
        The base workload name.
    machines / values:
        The axes, in sweep order.
    cells:
        ``(machine name, value)`` → :class:`GridCell` for every
        supported grid point.
    unsupported:
        ``(machine name, value)`` → reason, for shapes the machine or
        the x86_64 discovery machine cannot host.
    """

    app: str
    machines: tuple[str, ...]
    values: tuple[int, ...]
    cells: dict
    unsupported: dict

    def cell(self, machine: str, value: int) -> GridCell:
        """One grid point (raises ``KeyError`` for unsupported shapes)."""
        return self.cells[(machine, value)]

    def speedup(self, machine: str, value: int) -> float | None:
        """wall(1) / wall(value) on one machine; None without a base."""
        base = self.cells.get((machine, 1))
        cell = self.cells.get((machine, value))
        if base is None or cell is None or cell.failure or base.failure:
            return None
        if cell.wall_mcycles == 0.0:
            return None
        return base.wall_mcycles / cell.wall_mcycles

    def efficiency_pct(self, machine: str, value: int) -> float | None:
        """Parallel efficiency: speedup over the axis value, in percent."""
        speedup = self.speedup(machine, value)
        if speedup is None:
            return None
        return 100.0 * speedup / value


class GridStudy:
    """Sweep one workload's axis values × machines through the stages.

    The public, in-process form of the scaling and rank studies::

        from repro.api import RANKS, THREADS, GridStudy

        result = GridStudy("miniFE", THREADS, values=(1, 2, 4, 8)).run()
        result.efficiency_pct("ARMv8 AppliedMicro X-Gene", 8)

        result = GridStudy("miniFE", RANKS).run()
        result.cell("Intel Core i7-3770", 4).comm_pct

    Every cell composes the registered stage graph of its axis —
    third-party stages swapped into the stage registry, and machines
    added to the machine registry, flow through unchanged.  The
    multi-application scheduled grids behind ``repro scaling`` and
    ``repro ranks`` live in :mod:`repro.experiments.grid` and execute
    the same :func:`run_grid_cell`.

    Parameters
    ----------
    workload:
        Registry name, workload class, or instance (the shared-memory
        application; a rank axis wraps it per rank count).
    axis:
        :data:`THREADS` or :data:`RANKS`.
    machines:
        Machine axis: registered names, ISAs, or Machine instances.
    values:
        Axis values to sweep (default: the axis's own); shapes a machine
        cannot host are reported under :attr:`GridResult.unsupported`.
    config:
        Shared stage configuration (protocol scale, seed, ...).
    """

    def __init__(
        self,
        workload,
        axis: Axis,
        machines=GRID_MACHINES,
        values: tuple[int, ...] | None = None,
        config: PipelineConfig | None = None,
    ) -> None:
        self.app = _resolve_workload(workload)
        self.axis = axis
        self.machines: tuple[Machine, ...] = tuple(
            _resolve_target(machine) for machine in machines
        )
        self.values = tuple(axis.values if values is None else values)
        self.config = config or PipelineConfig()

    def grid(self) -> list[tuple[Machine, int]]:
        """The supported (machine, value) cells, in sweep order."""
        return [
            (machine, value)
            for machine in self.machines
            for value in self.values
            if self.axis.supports(machine, value)
        ]

    def unsupported(self) -> dict[tuple[str, int], str]:
        """(machine name, value) → reason, for unplaceable shapes."""
        return self.axis.unsupported(self.machines, self.values)

    def run(self, store: StageStore | None = None) -> GridResult:
        """Execute every supported cell (stage-cached when given a store).

        One stage graph runs per axis value, targeting every machine
        that can host the shape — the x86_64 discovery executes once per
        value and only measurement/validation fan out across the
        machine axis, with or without a store.
        """
        cells: dict[tuple[str, int], GridCell] = {}
        for value in self.values:
            machines = tuple(
                machine
                for machine in self.machines
                if self.axis.supports(machine, value)
            )
            if not machines:
                continue
            run = self.axis.pipeline(self.app, value, self.config, machines).run(store)
            for machine in machines:
                cells[(machine.name, value)] = _cell_from_run(
                    run, _app_name(self.app), machine, *self.axis.shape(value)
                )
        return GridResult(
            app=_app_name(self.app),
            machines=tuple(machine.name for machine in self.machines),
            values=self.values,
            cells=cells,
            unsupported=self.unsupported(),
        )
