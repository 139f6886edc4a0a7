"""Run the ``repro`` CLI with layer spans installed.

Usage (from a checkout root, with ``src`` on ``PYTHONPATH``)::

    PERFBENCH_TRACE_DIR=spans python perfbench/traced_cli.py all --quick

Arguments are those of ``python -m repro.cli``.  The import of
``repro.cli`` is recorded as the ``cli.import`` span.
"""

from __future__ import annotations

import os
import sys
import time

from spans import TRACE_DIR_ENV, Tracer, install


def main(argv: list[str]) -> int:
    tracer = Tracer(os.environ[TRACE_DIR_ENV])
    started = time.perf_counter()
    import repro.cli

    if argv[:1] == ["serve"]:
        # The daemon imports its modules lazily; load them first so
        # their aliases of wrapped functions are rebound too.
        import repro.serve.server  # noqa: F401
    seconds = time.perf_counter() - started
    tracer.record("cli.import", seconds, seconds)
    install(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
