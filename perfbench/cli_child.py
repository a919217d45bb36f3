"""Run one multishape CLI command with the benchmark's tracer installed.

    python3 perfbench/cli_child.py --trace-out TRACE.json -- generate ...

The command's arguments follow ``--``; ``src`` must be on ``PYTHONPATH``.
The traced totals are written to TRACE.json and the command's exit code is
returned, so the parent sees the same outcome as from ``multishape``.
"""

import argparse
import json
import sys

import tracing


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from multishape import cli  # imported before install so it is wrapped

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(command)
    finally:
        tracer.uninstall()
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
