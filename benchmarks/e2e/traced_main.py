"""Run one ``repro`` CLI command with every layer's public functions traced.

Usage::

    python benchmarks/e2e/traced_main.py SPANS.json <repro arguments...>

The launcher installs the timing wrappers of :mod:`e2e_trace`, then
calls ``repro.cli.main`` with the remaining arguments, exactly as
``python -m repro`` would. When the command returns (``repro serve``
returns on SIGINT) the spans are written to ``SPANS.json``.
"""

import sys

from e2e_trace import Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import repro.cli

    tracer = Tracer()
    tracer.install()
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
