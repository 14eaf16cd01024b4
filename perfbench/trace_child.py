"""Run one torsiontraj CLI command with the per-layer tracer installed.

Usage: python3 trace_child.py SRC_DIR TRACE_OUT [CLI ARGS...]

Imports the library from SRC_DIR, runs ``torsiontraj.cli.run`` on the
CLI arguments, writes the tracer's totals as JSON to TRACE_OUT and exits
with the command's exit code.
"""

import json
import sys


def main():
    src, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import torsiontraj.cli

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = torsiontraj.cli.run(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
