"""End-to-end benchmark of ``repro all --quick`` and ``repro serve``.

Run from the root of a checkout (the program is built from ``src/``)::

    python3 perfbench/run.py --workload quick-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 2017

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds a
traced run and reports the per-layer metrics.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--workload all`` runs every workload once and prints a table of the
end-to-end metrics and error rates instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import layers
from batch import run_cold, run_warm
from common import ROOT, SRC, Deadline, meta, new_run_root, remove_run_root
from serve_load import run_serve

#: Workload → runner(workload, root, seed, seconds, trace, deadline).
WORKLOADS = {
    "quick-cold-jobs2": run_cold,
    "quick-warm": run_warm,
    "serve-mixed": run_serve,
}

#: Children get what is left of this, so a run ends within 180 s.
RUN_BUDGET_S = 170.0


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    root = new_run_root(name)
    try:
        return WORKLOADS[name](name, root, seed, seconds, trace, Deadline(RUN_BUDGET_S))
    finally:
        remove_run_root(root)


def load_spec() -> tuple[dict, dict]:
    """End-to-end and per-layer units from ``BENCHMARK.json``, checked
    against the names the runners report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.WORKLOADS")
    if list(per_layer) != layers.names():
        raise SystemExit("BENCHMARK.json per_layer names differ from layers.names()")
    return end_to_end, per_layer


def result_line(result: dict, units: dict, trace: bool) -> dict:
    check = result["check"]
    values = layers.complete(result["per_layer"]) if trace else result["metrics"]
    metrics = {
        name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
    }
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }


def print_table(rows: list[tuple[str, dict]], end_to_end: dict) -> None:
    names = [*end_to_end, "error_rate"]
    print(f"{'workload':<18}" + "".join(f"{n:>16}" for n in names))
    print(f"{'':<18}" + "".join(f"{u:>16}" for u in [*end_to_end.values(), "ratio"]))
    for workload, result in rows:
        check = result["check"]
        values = [result["metrics"][n] for n in end_to_end]
        values.append(check.failed / check.attempted)
        print(f"{workload:<18}" + "".join(f"{v:>16.4f}" for v in values))


def print_layers(workload: str, result: dict, units: dict) -> None:
    """Every per-layer figure, then the layers' largest shares of the
    traced time: a pass's wall time, or the daemon's clients' POST-to-done
    time."""
    values = layers.complete(result["per_layer"])
    for metric, value in values.items():
        print(f"{workload:<18}{metric:<40}{value:>18.4f} {units[metric]}")
    shares = sorted(
        ((value / result["traced_s"], metric) for metric, value in values.items()
         if units[metric] == "s" and metric not in layers.CONTAINERS),
        reverse=True,
    )
    print(f"{workload:<18}largest layer shares: " + ", ".join(
        f"{metric} {share:.1%}" for share, metric in shares[:5]))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec()
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)

    print("meta " + json.dumps(meta(), sort_keys=True))
    started = time.perf_counter()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for reason in result["check"].reasons:
            print(f"FAILED {name}: {reason}", file=sys.stderr)
        rows.append((name, result))
    print_table(rows, end_to_end)
    if args.trace:
        for name, result in rows:
            print_layers(name, result, per_layer)
    print(f"elapsed {time.perf_counter() - started:.1f} s")
    if args.workload != "all":
        units = per_layer if args.trace else end_to_end
        print(json.dumps(result_line(rows[0][1], units, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
