"""The ``hyperbessel`` console entry point, optionally under span tracing.

Runs ``hyperbessel.cli.main`` with this process's arguments.  When the
environment names a spans file (``PERFBENCH_SPANS``), the package's layers
are traced, the click entry point gets a ``cli.main`` span, and the spans
are written to that file when the command exits.
"""

import os

import tracing
from hyperbessel.cli import main as cli_main


def main():
    spans_path = os.environ.get(tracing.SPANS_ENV)
    if not spans_path:
        return cli_main()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("cli.main"):
            return cli_main()
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
