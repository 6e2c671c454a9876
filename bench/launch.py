"""Traced stand-in for ``python -m oodgate.cli``.

Usage: ``python bench/launch.py <oodgate cli arguments>`` with the tracing
environment of ``tracing.Tracer.child_env`` set and ``src/`` on
``PYTHONPATH``. It times ``import oodgate.cli``, wraps the public functions
the CLI reaches (see ``tracing.WRAPPED``), runs ``main(argv)`` and writes the
spans when it exits. The exit code is the CLI's own.
"""

from __future__ import annotations

import sys

from tracing import Tracer, instrument


def main() -> int:
    tracer = Tracer.from_env()
    if tracer is None:
        print("launch.py: tracing environment is not set", file=sys.stderr)
        return 2
    try:
        with tracer.span("cli.import"):
            import oodgate.cli
        with tracer.span("trace.instrument"):
            instrument(tracer)
        return oodgate.cli.main(sys.argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
