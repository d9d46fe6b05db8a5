"""Run ``repro-experiments serve`` with the benchmark's probes installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT serve [serve options]``

The probes wrap the same layer boundaries as in-process traced runs
(:func:`perfbench.layers.install`), in the server process only: pool
workers are spawned fresh and stay unwrapped, so their stage times come
from what the server exports in ``GET /v1/metrics``.  On SIGINT the server
drains and stops, and the recorded spans are written to ``SPANS_OUT``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    from perfbench import layers, spans
    from repro.cli import main as cli_main

    spans_out, serve_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    probes = layers.install(recorder)
    try:
        status = cli_main(serve_args)
    finally:
        probes.remove()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(recorder.to_list(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
