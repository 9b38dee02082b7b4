"""Run the superint CLI as its console script does, optionally traced.

    python3 bench/cli_child.py [--trace-to FILE] <superint arguments>

Untraced, this is `superint <arguments>`. With --trace-to, the layer spans
of the run, its counters and the time `import superint.cli` took are written
to FILE as JSON.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main() -> None:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-to"]:
        from superint.cli import entry

        sys.argv = ["superint", *argv]
        entry()
        return
    trace_to, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import superint.cli

    import_s = time.perf_counter() - start
    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0, "cli.main")
    try:
        rc = superint.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        tracer.counts["cli.import_s"] += import_s
        tracer.counts["cli.imports"] += 1
        with open(trace_to, "w") as fh:
            json.dump({"summary": tracer.summary(), "spans": tracer.span_rows()}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
