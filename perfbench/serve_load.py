"""``serve-mixed``: ``repro serve`` under warm reads beside cold writes.

One generator process, two connections, both with ``max_retries=0`` so
a 429, 503 or connection error is a failure, never a silent retry:

* connection 1 sends open-loop ``GET /v1/cells/{digest}`` for cells
  computed during set-up: up a ladder of fixed rates for half of
  ``--seconds``, then at the reference rate until the timed stream
  ends.  Each request is timed from the moment it was due.
* connection 2 sends closed-loop ``POST /v1/cells?wait=1`` for cells
  the daemon has never seen: small trace cells while the ladder runs,
  then the timed stream (crossarch, scaling, ranks and trace; each
  scaling cell has a twin on another machine that reuses its stages).
  One cell of the stream is posted twice while in flight, so the
  coalescer joins the two.

Every served payload is compared, after the daemon stops, with the
payload a batch process computes for the same cell.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import layers
from common import (
    MIB, ROOT, Deadline, Tally, kill_group, program_env, quantile_ms, repro_argv, run_child,
    tree_bytes,
)
from spans import TRACE_DIR_ENV

#: Apps whose cells cost about the same (LULESH alone costs ~10x more).
APPS = ("graph500", "CoMD", "miniFE", "AMGMk", "HPCG", "MCB")
MACHINES = (
    "Intel Core i7-3770",
    "ARMv8 AppliedMicro X-Gene",
    "ARMv8 in-order (A53-class)",
)
#: Cells computed in set-up and then read by the GETs.  They are fixed,
#: so set-up does the same work for every seed.
WARM_TARGETS = tuple(
    {"kind": "crossarch", "app": app, "threads": 1} for app in ("CoMD", "miniFE", "HPCG")
)
#: Open-loop GET rates (req/s) for ``get_max_rps``, then the reference.
LADDER = (100, 200, 400, 800, 1600)
REFERENCE_RATE = 200
#: ``get_max_rps`` accepts a step whose p99 is within this limit...
P99_LIMIT_MS = 20.0
#: ...and whose lateness grew by no more than this across the step.
BACKLOG_GROWTH_MS = 10.0
#: Longest the reference step waits past its length for the stream.
WRITES_GRACE_S = 60.0
#: (crossarch threads, scaling width, rank count) of each stream round.
ROUNDS = ((8, 2, 2), (2, 4, 4))
BOOTS = 3
DAEMON_JOBS = 2


def cold_cells(rng: random.Random) -> list[dict]:
    """The timed cold stream, shuffled: per app and round, a crossarch
    cell, a scaling cell and its twin on another machine, a ranks cell
    and a trace cell.  The seed picks machines, trace lengths and order;
    the mix of kinds and sizes is fixed, so every seed costs about the
    same."""
    cells = []
    for round_, (threads, width, ranks) in enumerate(ROUNDS):
        for app in APPS:
            first, second = rng.sample(MACHINES, 2)
            accesses = rng.randrange(40_000, 50_000) + 10_000 * round_
            cells += [
                {"kind": "crossarch", "app": app, "threads": threads},
                {"kind": "scaling", "app": app, "threads": width, "machine": first},
                {"kind": "scaling", "app": app, "threads": width, "machine": second},
                {"kind": "ranks", "app": app, "ranks": ranks,
                 "machine": rng.choice(MACHINES)},
                {"kind": "trace", "app": app, "accesses": accesses},
            ]
    rng.shuffle(cells)
    return cells


def extra_cells(rng: random.Random, count: int) -> list[dict]:
    """Untimed never-seen cells that keep writes running up the ladder."""
    return [
        {"kind": "trace", "app": rng.choice(APPS), "accesses": 20_000 + index}
        for index in range(count)
    ]


# ----------------------------------------------------------------- daemon
class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_dir: Path, traced_dir: Path | None = None) -> None:
        from repro.serve.client import ServeClient

        env = program_env()
        if traced_dir is not None:
            traced_dir.mkdir(parents=True, exist_ok=True)
            env[TRACE_DIR_ENV] = str(traced_dir)
        args = ["serve", "--port", "0", "--jobs", str(DAEMON_JOBS), "--rate", "0",
                "--cache-dir", str(cache_dir)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_argv(*args, traced=traced_dir is not None), cwd=cache_dir.parent, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
        )
        line = self.proc.stderr.readline().decode()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        # Keep reading stderr so a chatty daemon never blocks on the pipe.
        threading.Thread(target=self.proc.stderr.read, daemon=True).start()
        self.port = int(match.group(1))
        with ServeClient("127.0.0.1", self.port, timeout=30, max_retries=0) as client:
            client.healthz()
        self.boot_s = time.perf_counter() - started

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient("127.0.0.1", self.port, timeout=60, max_retries=0)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        kill_group(self.proc.pid)
        self.proc.wait()


# -------------------------------------------------------------- generator
def _post(client, cell: dict, tally: Tally, served: dict, duplicate: bool = False):
    """POST one cell and wait until it is done; its seconds, or None."""
    from repro.api.service import CellSubmission
    from repro.serve.client import ServeError

    submission = CellSubmission(scale="quick", **cell)
    started = time.perf_counter()
    try:
        if duplicate:
            first = client.submit_raw(submission)
            tally.add(first.get("state") in ("queued", "running", "done"),
                      f"duplicate POST state {first.get('state')}")
        body = client.submit_raw(submission, wait=True)
    except (ServeError, OSError) as exc:
        tally.add(False, f"POST {cell}: {exc}")
        return None
    seconds = time.perf_counter() - started
    ok = body.get("state") == "done" and "result" in body
    tally.add(ok, f"POST {cell}: state {body.get('state')}")
    if not ok:
        return None
    served[body["digest"]] = (cell, body["result"])
    return seconds


def _get_phase(client, expected: dict, rng, rate, until, tally):
    """Open-loop GETs at ``rate`` until ``until(elapsed)``; returns
    per-request latency from the due time and lateness of the send."""
    from repro.serve.client import ServeError

    digests = sorted(expected)
    latencies, lateness = [], []
    started = time.perf_counter()
    index = 0
    while True:
        due = started + index / rate
        if until(due - started):
            break
        index += 1
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        sent = time.perf_counter()
        digest = rng.choice(digests)
        try:
            body = client.cell(digest)
        except (ServeError, OSError) as exc:
            tally.add(False, f"GET {digest[:12]}: {exc}")
            continue
        done = time.perf_counter()
        ok = body.get("state") == "done" and body.get("result") == expected[digest]
        tally.add(ok, f"GET {digest[:12]}: wrong or missing result")
        latencies.append(done - due)
        lateness.append(sent - due)
    return latencies, lateness


def _backlog_grows(lateness: list[float]) -> bool:
    quarter = max(1, len(lateness) // 4)
    head, tail = median(lateness[:quarter]), median(lateness[-quarter:])
    return (tail - head) * 1000.0 > BACKLOG_GROWTH_MS


def drive(daemon: Daemon, seed: int, seconds: float, cache_dir: Path, tally: Tally) -> dict:
    """Compute the warm targets, then run reads and writes side by side."""
    rng = random.Random(seed)
    served: dict[str, tuple[dict, object]] = {}
    posted: list[float] = []
    with daemon.client() as client:
        for cell in WARM_TARGETS:
            seconds_taken = _post(client, cell, tally, served)
            if seconds_taken is None:
                raise RuntimeError(f"warm target {cell} failed: {tally.reasons}")
            posted.append(seconds_taken)
    expected = {digest: payload for digest, (_, payload) in served.items()}
    # Peak RSS under load depends on when the cyclic garbage collector
    # frees the previous cells' arrays, so it swings by ~25% from run to
    # run; the set-up peak (boot and the fixed targets, no other load)
    # is the steady figure.
    setup_peak_rss_mib = daemon.peak_rss_mib()
    stream = cold_cells(rng)
    extras = extra_cells(rng, 500)
    duplicate_at = rng.randrange(len(stream))
    get_rng = random.Random(rng.random())
    step_s = seconds / 2 / len(LADDER)
    reference_s = seconds / 2

    ladder_done = threading.Event()
    cold_done = threading.Event()
    cold: dict = {"latencies": []}

    def write() -> None:
        with daemon.client() as client:
            for cell in extras:
                if ladder_done.is_set():
                    break
                seconds_taken = _post(client, cell, tally, served)
                if seconds_taken is not None:
                    posted.append(seconds_taken)
            cpu0 = daemon.cpu_s()
            started = time.perf_counter()
            for index, cell in enumerate(stream):
                seconds_taken = _post(client, cell, tally, served, index == duplicate_at)
                if seconds_taken is not None:
                    posted.append(seconds_taken)
                    cold["latencies"].append(seconds_taken)
            cold["wall_s"] = time.perf_counter() - started
            cold["cpu_s"] = daemon.cpu_s() - cpu0
            cold["cache_mib"] = tree_bytes(cache_dir) / MIB

    def writer() -> None:
        try:
            write()
        finally:
            cold_done.set()

    thread = threading.Thread(target=writer)
    thread.start()
    steps = []
    try:
        with daemon.client() as client:
            for rate in LADDER:
                latencies, lateness = _get_phase(
                    client, expected, get_rng, rate,
                    lambda elapsed: elapsed >= step_s, tally,
                )
                steps.append((rate, latencies, lateness))
            ladder_done.set()
            reference = _get_phase(
                client, expected, get_rng, REFERENCE_RATE,
                lambda elapsed: elapsed >= reference_s
                and (cold_done.is_set() or elapsed >= reference_s + WRITES_GRACE_S),
                tally,
            )
    finally:
        ladder_done.set()
        thread.join()
    if "wall_s" not in cold:
        raise RuntimeError(f"the cold stream did not finish: {tally.reasons}")
    with daemon.client() as client:
        status = client.status()
    return {
        "served": served,
        "posted_s": sum(posted),
        "steps": steps,
        "reference": reference,
        "cold": cold,
        "status": status,
        "setup_peak_rss_mib": setup_peak_rss_mib,
        "peak_rss_mib": daemon.peak_rss_mib(),
    }


def summarize(result: dict) -> dict:
    """Generator and daemon figures of one :func:`drive`."""
    latencies, lateness = result["reference"]
    max_rps = 0
    for rate, step_latencies, step_lateness in result["steps"]:
        if (step_latencies and quantile_ms(step_latencies, 0.99) <= P99_LIMIT_MS
                and not _backlog_grows(step_lateness)):
            max_rps = rate
    counters = result["status"].counters
    submissions = counters.get("coalescer.submissions", 0)
    return {
        "get_p50_ms": quantile_ms(latencies, 0.50),
        "get_p99_ms": quantile_ms(latencies, 0.99),
        "get_max_rps": max_rps,
        "submit_p50_ms": median(result["cold"]["latencies"]) * 1000.0,
        "gen.late_p99_ms": quantile_ms(lateness, 0.99),
        "serve.computed": counters.get("computed", 0),
        "serve.warm_memo": counters.get("warm_memo", 0),
        "serve.warm_disk": counters.get("warm_disk", 0),
        "serve.coalesce_ratio": (
            counters.get("coalescer.coalesced", 0) / submissions if submissions else 0.0
        ),
        "serve.rate_limited": counters.get("rate_limited", 0),
        "serve.failures": counters.get("failures", 0),
        "serve.peak_rss_mib": result["peak_rss_mib"],
    }


def check_against_batch(served_runs: list[dict], run_root: Path, tally: Tally,
                        timeout: float) -> None:
    """Recompute every served cell in one batch process and compare."""
    cells = {digest: cell for served in served_runs for digest, (cell, _) in served.items()}
    request = run_root / "reference-cells.json"
    request.write_text(json.dumps(cells))
    done = run_child(
        [sys.executable, str(ROOT / "perfbench" / "reference.py"), str(request),
         str(run_root / "reference-cache")],
        ROOT, program_env(), timeout,
    )
    if done.returncode != 0:
        tally.add(False, "batch reference failed: " + done.stderr.decode()[-300:])
        return
    reference = json.loads(done.stdout.decode().splitlines()[-1])
    for served in served_runs:
        for digest, (cell, payload) in served.items():
            ok = reference.get(digest) == json.dumps(payload, sort_keys=True)
            tally.add(ok, f"served payload of {cell} differs from the batch payload")


def run_serve(workload: str, root: Path, seed: int, seconds: int, trace: bool,
              deadline: Deadline) -> dict:
    """The ``serve-mixed`` workload."""
    tally = Tally()
    boots = []
    for index in range(BOOTS - 1):
        daemon = Daemon(root / f"boot-{index}")
        boots.append(daemon.boot_s)
        daemon.stop()
    daemon = Daemon(root / "cache")
    boots.append(daemon.boot_s)
    try:
        result = drive(daemon, seed, seconds, root / "cache", tally)
    finally:
        daemon.stop()
    cold = result["cold"]
    out = {
        "check": tally,
        "metrics": {
            "setup_s": median(boots),
            "wall_s": cold["wall_s"],
            "cpu_s": cold["cpu_s"],
            "peak_rss_mib": result["setup_peak_rss_mib"],
            "cache_mib": cold["cache_mib"],
        },
    }
    served_runs = [result["served"]]
    if trace:
        daemon = Daemon(root / "traced-cache", traced_dir=root / "spans")
        try:
            traced = drive(daemon, seed, seconds, root / "traced-cache", tally)
        finally:
            daemon.stop()
        served_runs.append(traced["served"])
        spans = layers.Spans(root / "spans")
        per_layer = layers.layer_metrics(spans, 1, traced["cold"]["wall_s"])
        # A daemon idles between requests, so its wall clock says
        # nothing; attribute the time clients waited for computed cells.
        executing = spans.get("exec.cells.execute", layers.INCL)
        per_layer["unattributed_frac"] = (traced["posted_s"] - executing) / traced["posted_s"]
        per_layer["trace_overhead_frac"] = traced["cold"]["wall_s"] / cold["wall_s"] - 1.0
        per_layer.update(summarize(result))
        out["per_layer"] = per_layer
        out["traced_s"] = traced["posted_s"]
    check_against_batch(served_runs, root, tally, deadline.left())
    return out
