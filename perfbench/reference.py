"""Batch-compute study cells, for checking what ``repro serve`` served.

Usage::

    PYTHONPATH=src python perfbench/reference.py CELLS.json CACHE_DIR

``CELLS.json`` maps a served digest to its submission fields.  Each
cell is lowered exactly as the daemon lowers it and executed by the
batch engine over a cache of its own; the last stdout line maps each
digest to the payload's canonical JSON.
"""

from __future__ import annotations

import json
import sys


def main(cells_path: str, cache_dir: str) -> int:
    from repro.api.codec import payload_to_jsonable
    from repro.api.service import CellSubmission
    from repro.exec.scheduler import StudyScheduler
    from repro.experiments.config import default_config

    cells = json.loads(open(cells_path, encoding="utf-8").read())
    # Both CPUs: the processes backend renders byte-identical payloads.
    config = default_config("quick", cache_dir=cache_dir, jobs=2, backend="processes")
    scheduler = StudyScheduler(config)
    requests = {
        digest: CellSubmission(scale="quick", **cell).to_request(config)
        for digest, cell in cells.items()
    }
    results = scheduler.run(list(requests.values()))
    print(json.dumps({
        digest: json.dumps(payload_to_jsonable(results[request]), sort_keys=True)
        for digest, request in requests.items()
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
