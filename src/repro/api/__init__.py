"""``repro.api`` — the composable stage-based methodology API.

The paper's workflow (profile → signatures → clustering → selection →
measurement → reconstruction → validation) is expressed as seven
first-class :class:`~repro.api.stage.Stage` plugins assembled by a
fluent builder::

    from repro.api import ClusterStage, build_pipeline

    run = (
        build_pipeline("miniFE", threads=8)
        .with_stage(ClusterStage(max_k=10))
        .on("ARMv8")
        .run()
    )

Workloads, machines and stages live in open registries
(:data:`workload_registry`, :data:`machine_registry`,
:data:`stage_registry`) with decorator registration
(``@register_workload`` etc.) and case-insensitive, did-you-mean name
lookup, so new applications, platforms and clustering variants plug in
without touching core files.

Axis sweeps build on the same graph: :class:`GridStudy` over the
:data:`THREADS` axis asks whether a representative region survives
team growth, and over the :data:`RANKS` axis whether it survives
distribution over MPI-style ranks (per-rank discovery through the
registered ``rankify`` / ``coalesce_ranks`` stages, communication
priced by each machine's network model).  The legacy
``BarrierPointPipeline`` / ``CrossArchStudy`` / ``create_workload``
entry points remain as deprecation-shimmed facades over this package.
"""

from repro.api.builder import (
    PipelineBuilder,
    PipelineRun,
    StagePipeline,
    build_pipeline,
)
from repro.api.context import StageContext
from repro.api.grid import (
    GRID_MACHINES,
    RANK_THREADS,
    RANKS,
    THREADS,
    Axis,
    GridCell,
    GridResult,
    GridStudy,
    default_rank_stages,
    run_grid_cell,
)
from repro.api.registry import (
    PluginRegistry,
    machine_registry,
    register_machine,
    register_stage,
    register_workload,
    stage_registry,
    workload_registry,
)
from repro.api.rank_stages import (
    CoalesceRanksStage,
    RankifyStage,
    coalesce_signatures,
)
from repro.api.stage import Stage
from repro.api.stages import (
    DEFAULT_STAGE_NAMES,
    ClusterStage,
    MeasureStage,
    ProfileStage,
    ReconstructStage,
    SelectStage,
    SignatureStage,
    ValidateStage,
    default_stages,
    evaluate_selection,
)
from repro.api.study import CrossArchResult, run_crossarch
from repro.api.types import (
    EvaluationResult,
    PipelineConfig,
    SupportsProgram,
    evaluation_payload,
)

__all__ = [
    "PipelineBuilder",
    "PipelineRun",
    "StagePipeline",
    "build_pipeline",
    "StageContext",
    "PluginRegistry",
    "workload_registry",
    "machine_registry",
    "stage_registry",
    "register_workload",
    "register_machine",
    "register_stage",
    "Stage",
    "DEFAULT_STAGE_NAMES",
    "default_stages",
    "ProfileStage",
    "SignatureStage",
    "ClusterStage",
    "SelectStage",
    "MeasureStage",
    "ReconstructStage",
    "ValidateStage",
    "evaluate_selection",
    "CrossArchResult",
    "run_crossarch",
    "Axis",
    "THREADS",
    "RANKS",
    "GRID_MACHINES",
    "RANK_THREADS",
    "GridCell",
    "GridResult",
    "GridStudy",
    "run_grid_cell",
    "RankifyStage",
    "CoalesceRanksStage",
    "coalesce_signatures",
    "default_rank_stages",
    "EvaluationResult",
    "PipelineConfig",
    "SupportsProgram",
    "evaluation_payload",
]
