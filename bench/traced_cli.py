"""Run the gossipfield CLI with the layer tracer installed.

    python3 bench/traced_cli.py SPANS.json <gossipfield CLI arguments>

Writes the spans of the run to SPANS.json as a JSON list and exits with
the CLI's exit code. gossipfield must be importable (PYTHONPATH=src).
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    from gossipfield import cli
    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    tracer.record("cli", "import", import_s)
    tracing.install(tracer)
    code = cli.main(argv)
    spans_path.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
