"""Run one nilwitness command with the benchmark's tracing installed.

    python3 bench/launch.py spans|counts OUT.json CLI-ARGS...

`spans` records layer spans, `counts` counts scalar operations only (see
spans.py). The import of nilwitness.cli is timed, the command runs through
`nilwitness.cli.main`, and at exit the record is written to OUT.json. The
exit code is the command's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import spans


def main() -> int:
    mode, out, *argv = sys.argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("nilwitness.cli")
    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    if mode == "spans":
        patches = spans.install_spans(tracer)
    else:
        patches = spans.install_counters(tracer.counts)
    code = None
    try:
        code = cli.main(argv)
    finally:
        patches.undo()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "exit": code, "spans": tracer.spans, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
