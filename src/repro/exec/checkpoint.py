"""Study checkpoint/resume: an append-only sidecar of finished cells.

A long grid killed mid-run used to restart from whatever the
content-addressed store happened to hold — fine for cacheable kinds,
but the :data:`~repro.exec.cells.CELL_LEVEL_UNCACHED` kinds
(``scaling``, ``ranks``: cheap cells whose stage pipeline is the real
work) recomputed from zero, and there was no record of *how far* the
grid had progressed.  :class:`StudyCheckpoint` journals every completed
cell digest — one CRC-framed record per completion, appended *as the
cell finishes* so a driver SIGKILL loses at most the in-flight cell —
and parks the payloads of uncacheable kinds in a columnar checkpoint
area next to the journal.

``repro ... --resume`` then consults the checkpoint before scheduling:
journaled uncacheable cells reload from the checkpoint area and
cacheable cells hit the store as usual, so only genuinely unfinished
cells re-execute.  A fully successful CLI command clears its
checkpoint; an aborted one leaves it for the next ``--resume``.

The checkpoint is fingerprint-scoped (same addressing as the store), so
resuming under a changed protocol can never serve a stale cell.
"""

from __future__ import annotations

from pathlib import Path

from repro.exec.request import StudyRequest
from repro.exec.store import config_fingerprint, request_digest
from repro.util.recordlog import RecordLog

__all__ = ["StudyCheckpoint"]


class StudyCheckpoint:
    """Crash-safe progress journal for one (cache_dir, configuration).

    Disabled (every query misses, every record is a no-op) when the
    configuration has no cache directory — there is nowhere durable to
    journal to, and such runs are explicitly ephemeral.
    """

    def __init__(self, cache_dir: str, config) -> None:
        self.fingerprint = config_fingerprint(config)
        if cache_dir:
            self._dir = Path(cache_dir) / "checkpoints" / self.fingerprint[:20]
            # durable=False: a checkpoint shadows recomputable work, so
            # it survives process death (the OS flushes on close) but
            # does not pay an fsync per cell against power loss.
            self._log = RecordLog(self._dir / "cells.journal")
        else:
            self._dir = None
            self._log = None
        self._done: set[str] = set()
        self._loaded = False

    @property
    def enabled(self) -> bool:
        return self._log is not None

    # ------------------------------------------------------------ replay
    def load(self) -> int:
        """Replay the journal (self-healing any torn tail); returns count."""
        self._done.clear()
        self._loaded = True
        if self._log is None:
            return 0
        for record in self._log.replay():
            digest = record.get("digest") if isinstance(record, dict) else None
            if digest:
                self._done.add(digest)
        return len(self._done)

    def completed(self, digest: str) -> bool:
        """Whether a cell digest was journaled as finished."""
        if not self._loaded:
            self.load()
        return digest in self._done

    # ------------------------------------------------------------ record
    def digest(self, request: StudyRequest) -> str:
        return request_digest(request, self.fingerprint)

    def record(self, request: StudyRequest, payload=None) -> None:
        """Journal one completed cell (appended before control returns).

        ``payload`` is given only for uncacheable kinds; it is parked
        in the checkpoint area *before* the journal append, so a crash
        between the two leaves an unreferenced payload file (harmless,
        cleared with the checkpoint) rather than a journaled cell whose
        payload is missing.
        """
        if self._log is None:
            return
        digest = self.digest(request)
        if payload is not None:
            from repro.exec.columnar import write_payload_atomic

            # durable=False, like the journal: a torn parked payload
            # reads back as None and the scheduler re-executes the cell.
            write_payload_atomic(self._payload_path(digest), payload, durable=False)
        self._log.append(
            {"digest": digest, "kind": request.kind, "app": request.app}
        )
        self._done.add(digest)

    def _payload_path(self, digest: str) -> Path:
        return self._dir / "payloads" / f"{digest[:24]}.rpb"

    def load_payload(self, request: StudyRequest):
        """Reload one parked uncacheable payload (None on miss/corrupt)."""
        if self._dir is None:
            return None
        digest = self.digest(request)
        if digest not in self._done:
            return None
        from repro.exec.columnar import read_payload_file

        loaded = read_payload_file(self._payload_path(digest))
        return None if loaded is None else loaded[0]

    # ------------------------------------------------------------- clear
    def clear(self) -> None:
        """Drop the journal and parked payloads (run fully succeeded)."""
        self._done.clear()
        if self._log is None:
            return
        self._log.delete()
        payloads = self._dir / "payloads"
        try:
            entries = list(payloads.iterdir())
        except OSError:
            return
        for path in entries:
            try:
                path.unlink()
            except OSError:
                pass

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
