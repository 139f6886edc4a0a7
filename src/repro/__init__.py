"""repro — cross-architectural BarrierPoint on simulated hardware.

A full reproduction of Ferrerón et al., *"Crossing the Architectural
Barrier: Evaluating Representative Regions of Parallel HPC
Applications"* (ISPASS 2017): the BarrierPoint sampling methodology,
evaluated across x86_64 and ARMv8 with and without vectorisation, on
simulated stand-ins for the paper's Pin/PAPI/real-hardware toolchain.

Quickstart
----------
>>> from repro import build_pipeline
>>> run = build_pipeline("miniFE", threads=8).on("ARMv8").run()
>>> best = min(run.evaluations_on("ARMv8"),
...            key=lambda e: e.report.primary_error)  # doctest: +SKIP

The stage-based API lives in :mod:`repro.api`: seven pluggable stages
(profile → signature → cluster → select → measure → reconstruct →
validate) assembled by :func:`repro.api.build_pipeline`, with open
``@register_workload`` / ``@register_machine`` / ``@register_stage``
registries.  ``BarrierPointPipeline``, ``CrossArchStudy`` and
``create_workload`` remain as deprecation-shimmed facades.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison of every table and figure.

BLAS threads
------------
Study cells are the unit of parallelism, and each cell's k-means runs
on matrices of a few dozen rows, so importing this package sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
to ``"1"`` in ``os.environ`` unless the caller exported its own value.
The setting is process-wide: a host application that imports ``repro``
before numpy gets single-threaded BLAS for all its own work too, and
every child process it spawns inherits the three variables.  The pin
must run before anything imports numpy: BLAS reads its thread count
once, when the library loads, and pool workers are forked from a
driver that already has it loaded, so setting the environment any
later (in a pool initializer, say) changes nothing.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from repro.api import (
    PipelineBuilder,
    Stage,
    StageContext,
    StagePipeline,
    build_pipeline,
    machine_registry,
    register_machine,
    register_stage,
    register_workload,
    run_crossarch,
    stage_registry,
    workload_registry,
)
from repro.api.deprecation import warn_once
from repro.api.types import EvaluationResult, PipelineConfig
from repro.core.crossarch import ConfigResult, CrossArchResult, CrossArchStudy
from repro.core.errors import CrossArchitectureMismatch, MethodologyError
from repro.core.pipeline import BarrierPointPipeline
from repro.core.selection import BarrierPointSelection
from repro.core.validation import EstimationReport
from repro.hw.machines import APM_XGENE, INTEL_I7_3770, Machine, machine_for
from repro.hw.measure import MeasurementProtocol
from repro.hw.pmu import PMU_METRICS
from repro.isa.descriptors import ALL_BINARIES, ISA, BinaryConfig, binary_config
from repro.util.rng import RngTree
from repro.workloads.base import ProxyApp
from repro.workloads.registry import (
    ACCURATE_APPS,
    EVALUATED_APPS,
    REGISTRY,
    SINGLE_REGION_APPS,
    TABLE1_ORDER,
    all_apps,
    create,
)

__version__ = "1.2.0"


def create_workload(name: str) -> ProxyApp:
    """Deprecated alias of :func:`repro.workloads.registry.create`."""
    warn_once(
        "create_workload",
        "create_workload is deprecated; use repro.workloads.registry.create"
        " or repro.api.workload_registry.get",
    )
    return create(name)

__all__ = [
    "__version__",
    # stage API
    "build_pipeline",
    "PipelineBuilder",
    "StagePipeline",
    "StageContext",
    "Stage",
    "run_crossarch",
    "workload_registry",
    "machine_registry",
    "stage_registry",
    "register_workload",
    "register_machine",
    "register_stage",
    # legacy facades
    "BarrierPointPipeline",
    "PipelineConfig",
    "EvaluationResult",
    "BarrierPointSelection",
    "EstimationReport",
    "CrossArchStudy",
    "CrossArchResult",
    "ConfigResult",
    "MethodologyError",
    "CrossArchitectureMismatch",
    # platforms
    "Machine",
    "INTEL_I7_3770",
    "APM_XGENE",
    "machine_for",
    "MeasurementProtocol",
    "PMU_METRICS",
    # ISAs
    "ISA",
    "BinaryConfig",
    "binary_config",
    "ALL_BINARIES",
    # workloads
    "create",
    "create_workload",
    "all_apps",
    "REGISTRY",
    "TABLE1_ORDER",
    "EVALUATED_APPS",
    "ACCURATE_APPS",
    "SINGLE_REGION_APPS",
    # utilities
    "RngTree",
]
