"""Run one ``freedec`` command with the benchmark's layer wrappers installed.

Usage: python3 bench/cli_child.py LAYERS.json <freedec arguments...>

Behaves like ``python3 -m freedec.cli <arguments>`` and also writes the
per-layer totals of the command to LAYERS.json.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import freedec.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main():
    layers_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        code = freedec.cli.main(argv)
    with open(layers_path, "w", encoding="utf-8") as handle:
        json.dump(dict(tracer.totals), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
