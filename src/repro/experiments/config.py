"""Experiment-level configuration.

The paper's protocol is 10 discovery runs × 20 measurement repetitions
over thread counts 1, 2, 4, 8.  ``REPRO_SCALE=quick`` (or
``--scale quick`` on the CLI) shrinks the protocol for fast smoke runs;
benches default to the full protocol.  :func:`default_config` is the
single factory both the CLI and the benchmark suite go through, so the
two can never drift apart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.api.types import PipelineConfig
from repro.clustering.simpoint import SimPointOptions
from repro.hw.measure import MeasurementProtocol

__all__ = [
    "ExperimentConfig",
    "default_config",
    "register_config_machines",
    "grid_machines",
    "SCALES",
]

#: Recognised protocol scales.
SCALES = ("full", "quick")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared parameters of the experiment drivers.

    Attributes
    ----------
    thread_counts:
        Team widths swept in Figure 2 (paper: 1, 2, 4, 8).
    discovery_runs / repetitions:
        The paper's 10-run discovery and 20-repetition measurement.
    seed:
        Root seed; the same seed reproduces every number exactly.
    cache_dir:
        Where the :class:`repro.exec.store.StudyStore` persists study
        cell payloads ('' disables the disk cache).
    simpoint / bbv_weight:
        Clustering options and BBV/LDV signature balance — part of the
        cache fingerprint, so changing e.g. ``max_k`` can never serve a
        stale summary.
    jobs / backend:
        Study-graph execution: worker count and backend name
        (``serial``, ``threads``, ``processes``; None picks
        ``processes`` when ``jobs > 1``).  Execution-only — neither
        affects any computed number nor the cache fingerprint.
    trace_accesses:
        Accesses per streamed-trace cell (the ``trace`` artefact).  Part
        of each trace request's identity (cache-addressed through the
        request params), scaled with the protocol: the quick grid stays
        smoke-test sized, the full grid runs paper-scale 10⁷-access
        streams out of core.
    trace_tile_size:
        Tile length the streaming kernels consume.  Execution-only:
        every streamed kernel is bit-identical across tile sizes (the
        stream itself is generated in fixed granules — see
        :data:`repro.mem.streams.GEN_BLOCK`), so this knob bounds peak
        memory without entering the cache fingerprint.
    machine_specs:
        Paths of ingested machine spec files (``repro machines ingest
        --save``; see :mod:`repro.hw.ingest`).  Loaded and registered by
        :func:`register_config_machines` — called by the CLI and at the
        top of every grid-cell executor, because worker processes start
        with only the built-in machines.
    machines:
        Extra machine names appended to the scaling/ranks/trace grids —
        the way ingested machines become first-class grid citizens.
        Names must be registered (built-in or via ``machine_specs``).
    faults:
        Fault-injection spec string (``"seed=7,kill=0.3,torn=0.2"``;
        see :class:`repro.exec.faults.FaultPlan`).  Execution-only by
        contract: an injected fault may make a cell *fail and retry*,
        never change what a successful cell computes — the chaos suite
        asserts byte-identity against fault-free runs.
    cell_retries / cell_timeout / retry_backoff:
        Per-cell supervision budget (see :mod:`repro.exec.supervise`):
        retries after the first attempt, per-attempt wall-clock seconds
        (0 disables) and the base backoff delay.  Execution-only.
    resume:
        Consult the study checkpoint (:mod:`repro.exec.checkpoint`)
        before scheduling, skipping cells a crashed run already
        finished.  Execution-only.

    All six resilience knobs are deliberately outside
    :meth:`pipeline_config`, so they never enter the cache fingerprint:
    a chaos run and a fault-free run address the *same* cells.
    """

    thread_counts: tuple[int, ...] = (1, 2, 4, 8)
    discovery_runs: int = 10
    repetitions: int = 20
    seed: int = 2017
    cache_dir: str = ".repro-cache"
    simpoint: SimPointOptions = field(default_factory=SimPointOptions)
    bbv_weight: float = 0.5
    jobs: int = 1
    backend: str | None = None
    trace_accesses: int = 10_000_000
    trace_tile_size: int = 1 << 20
    machine_specs: tuple[str, ...] = ()
    machines: tuple[str, ...] = ()
    faults: str = ""
    cell_retries: int = 2
    cell_timeout: float = 0.0
    retry_backoff: float = 0.05
    resume: bool = False

    def pipeline_config(self) -> PipelineConfig:
        """The per-configuration pipeline parameters."""
        return PipelineConfig(
            discovery_runs=self.discovery_runs,
            simpoint=self.simpoint,
            protocol=MeasurementProtocol(repetitions=self.repetitions),
            bbv_weight=self.bbv_weight,
            seed=self.seed,
        )

    def with_max_k(self, max_k: int | None) -> "ExperimentConfig":
        """This configuration with the SimPoint sweep capped at ``max_k``.

        The cap is layered on the scale's own simpoint options rather
        than a fresh :class:`SimPointOptions`: the scale may have picked
        e.g. a different clustering algorithm, and the cap must not
        silently reset it.  None returns the configuration unchanged.
        """
        if max_k is None:
            return self
        return replace(self, simpoint=replace(self.simpoint, max_k=max_k))


def register_config_machines(config: ExperimentConfig) -> None:
    """Register the config's ingested machine specs (idempotent).

    Every grid-cell executor calls this first: study cells run in
    worker processes whose registries hold only the built-in machines,
    and the spec files in ``config.machine_specs`` are how ingested
    machines travel across the process boundary.
    """
    if config.machine_specs:
        from repro.hw.ingest.spec import ensure_registered

        ensure_registered(config.machine_specs)


def grid_machines(
    config: ExperimentConfig, base: tuple[str, ...]
) -> tuple[str, ...]:
    """A grid's machine axis: the built-in base plus config extras."""
    return base + tuple(
        name for name in config.machines if name not in base
    )


def default_config(scale: str | None = None, **overrides) -> ExperimentConfig:
    """Build the configuration for one protocol scale.

    Parameters
    ----------
    scale:
        ``"full"`` (paper protocol) or ``"quick"`` (3 discovery runs,
        5 repetitions, thread counts 1 and 8).  None reads
        ``REPRO_SCALE`` from the environment, defaulting to ``full``.
    overrides:
        Any :class:`ExperimentConfig` field, applied on top of the
        scale's base values (e.g. ``seed=7``, ``jobs=4``,
        ``cache_dir=''``).
    """
    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "full")
    scale = scale.lower()
    if scale == "quick":
        base = ExperimentConfig(
            thread_counts=(1, 8),
            discovery_runs=3,
            repetitions=5,
            trace_accesses=200_000,
        )
    elif scale == "full":
        # Paper-scale signature matrices make Lloyd's full-data passes
        # the clustering bottleneck; the full protocol clusters with
        # seeded mini-batch k-means while quick scale keeps the exact
        # solver as the golden oracle (tests bound one against the
        # other on shared inputs).
        base = ExperimentConfig(
            simpoint=SimPointOptions(algorithm="minibatch"),
        )
    else:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return replace(base, **overrides) if overrides else base
