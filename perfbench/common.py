"""Shared plumbing: child processes, run directories, sizes, metadata."""

from __future__ import annotations

import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Checkout root (the benchmark runs from it; ``src/`` holds the program).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch roots live here and are deleted when the run ends.
RUNS = ROOT / ".perfbench-runs"

#: Environment that would change what the program computes.
_PROGRAM_ENV = ("REPRO_SCALE", "REPRO_FAULTS", "REPRO_FORCE_LEGACY_CODEC", "PYTHONPATH")
#: Thread settings recorded (never set) in the report metadata.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIB = 1 << 20


def program_env(**extra: str) -> dict:
    """The environment a child runs the program with."""
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def repro_argv(*args: str, traced: bool = False) -> list[str]:
    entry = [str(ROOT / "perfbench" / "traced_cli.py")] if traced else ["-m", "repro.cli"]
    return [sys.executable, *entry, *args]


@dataclass
class Completed:
    """One reaped child: exit code, output and its own resource usage."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


def run_child(argv, cwd, env, timeout: float) -> Completed:
    """Run ``argv`` and reap it with ``wait4``.

    ``wait4`` returns the usage of that child and of every descendant it
    reaped (pool workers), so CPU and peak RSS belong to this process
    tree alone; ``RUSAGE_CHILDREN`` would carry the maximum over every
    earlier child too.  The child leads its own process group, which is
    killed on timeout or interruption.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    chunks: dict[str, bytes] = {}

    def drain(name, stream):
        chunks[name] = stream.read()

    readers = [
        threading.Thread(target=drain, args=(name, stream), daemon=True)
        for name, stream in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for reader in readers:
        reader.start()
    timer = threading.Timer(timeout, kill_group, args=(proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc.pid)  # strays a crashed child left behind
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Completed(
        returncode=proc.returncode,
        stdout=chunks.get("out", b""),
        stderr=chunks.get("err", b""),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024,
    )


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def tree_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                pass
    return total


def new_run_root(workload: str) -> Path:
    """A fresh scratch root for this run; stale roots of dead runs go."""
    RUNS.mkdir(exist_ok=True)
    for stale in RUNS.iterdir():
        pid = stale.name.rsplit("-", 1)[-1]
        if pid.isdigit() and not _alive(int(pid)):
            shutil.rmtree(stale, ignore_errors=True)
    root = RUNS / f"{workload}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    return root


def remove_run_root(root: Path) -> None:
    shutil.rmtree(root, ignore_errors=True)
    try:
        RUNS.rmdir()
    except OSError:
        pass  # another run still uses it


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def meta() -> dict:
    """Host and toolchain facts that explain the numbers."""
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "platform": platform.platform(),
    }


class Tally:
    """Attempts and failures of one run, with the first few reasons."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, ok: bool, reason: str = "") -> None:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(reason)


class Deadline:
    """What is left of a run's time budget, for child timeouts."""

    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def quantile_ms(samples: list[float], q: float) -> float:
    """The ``q`` quantile (nearest rank) of seconds, in ms."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1000.0
