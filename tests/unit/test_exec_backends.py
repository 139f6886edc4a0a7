"""Tests for the execution backends and the request type."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.backends import (
    BACKEND_NAMES,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    create_backend,
    usable_cpus,
)
from repro.exec.request import StudyRequest


def _square(x):
    """Module-level so the process backend can pickle it."""
    return x * x


class TestStudyRequest:
    def test_params_sorted_on_construction(self):
        a = StudyRequest("k", "app", 4, params=(("b", 1), ("a", 2)))
        b = StudyRequest("k", "app", 4, params=(("a", 2), ("b", 1)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == (("a", 2), ("b", 1))

    def test_param_lookup(self):
        request = StudyRequest("k", "app", 4, params=(("isa", "ARMv8"),))
        assert request.param("isa") == "ARMv8"
        assert request.param("missing", 7) == 7

    def test_threads_validated(self):
        with pytest.raises(ValueError):
            StudyRequest("k", "app", 0)

    def test_describe_mentions_identity(self):
        request = StudyRequest("crossarch", "MCB", 8)
        text = request.describe()
        assert "crossarch" in text and "MCB" in text and "t8" in text


class TestBackends:
    @pytest.mark.parametrize("name", sorted(BACKEND_NAMES))
    def test_map_preserves_order(self, name):
        backend = create_backend(name, jobs=3)
        assert backend.map(_square, list(range(10))) == [x * x for x in range(10)]

    def test_serial_is_default_for_one_job(self):
        assert isinstance(create_backend(None, jobs=1), SerialBackend)

    def test_processes_is_default_for_many_jobs(self):
        assert isinstance(create_backend(None, jobs=4), ProcessPoolBackend)

    def test_explicit_names(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("threads", 2), ThreadPoolBackend)
        assert isinstance(create_backend("processes", 2), ProcessPoolBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("gpu")

    def test_jobs_floored_at_one(self):
        assert create_backend("threads", 0).jobs == 1

    def test_usable_cpus_reads_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert usable_cpus() == 3

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6


class TestBlasThreadPin:
    """Importing ``repro`` pins BLAS/OpenMP to one thread by default.

    Checked in a fresh interpreter: this one imported numpy before
    ``repro``, so its BLAS already chose a thread count.
    """

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _read_after_import(self, **exported):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env.update(exported)
        code = "import repro, os; print(*(os.environ[v] for v in %r))" % (self.VARS,)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        return out.stdout.split()

    def test_unset_variables_read_one(self):
        assert self._read_after_import() == ["1", "1", "1"]

    def test_exported_value_wins(self):
        assert self._read_after_import(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]
