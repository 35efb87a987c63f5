"""Run `agentauth serve` with the benchmark's span wrappers installed.

Usage: python3 perfbench/serve_traced.py SPANS_OUT serve --listen ... (the
arguments after SPANS_OUT go to agentauth.cli.main unchanged).  On SIGTERM the
server stops and its spans are written to SPANS_OUT as JSON.  agentauth must
be importable, e.g. with PYTHONPATH=src.
"""

import signal
import sys

import spans


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from agentauth import cli

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
