"""Traced CLI call: wrap the public functions, run ``delayswitch.cli.main``, write the spans.

Usage: python perfbench/cli_driver.py SPANS_JSON COMMAND [ARG...]

The caller puts the checkout's ``src`` on PYTHONPATH.  Standard output and
the exit code are those of ``python -m delayswitch COMMAND [ARG...]``.
"""

import json
import sys
from pathlib import Path

import delayswitch.cli
from tracing import Tracer


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli." + argv[0]):
            code = delayswitch.cli.main(argv)
    finally:
        tracer.uninstall()
    spans_file.write_text(json.dumps(tracer.records()))
    return code


if __name__ == "__main__":
    sys.exit(main())
