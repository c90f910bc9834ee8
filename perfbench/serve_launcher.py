"""Start ``tcast-serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_FILE run --port 0``.
Everything after ``SPANS_FILE`` goes to ``repro.serve.cli.main``; when
the daemon exits (SIGTERM drains it), its spans are written to
``SPANS_FILE`` in the format :func:`perfbench.spans.load_records` reads.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list) -> int:
    from perfbench import spans
    from repro.serve import cli

    tracer = spans.Tracer()
    spans.install(tracer, serve=True)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(pathlib.Path(argv[0]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
