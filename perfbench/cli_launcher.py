"""Traced CLI process: `cli_launcher.py <spans.json> <op id> <corrspace argv...>`.

Imports `corrspace.cli` inside a `cli.import` span, wraps the program's
public functions (tracer.TARGETS), runs `corrspace.cli.main(argv)` and
writes the spans when it returns.
"""

import importlib
import sys

from tracer import Tracer

if __name__ == "__main__":
    spans_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    with tracer.span("cli.import"):
        cli = importlib.import_module("corrspace.cli")
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.dump(spans_path)
    sys.exit(rc)
