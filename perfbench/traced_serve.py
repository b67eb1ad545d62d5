"""Launch ``repro serve`` with the benchmark's call-boundary wrappers.

    python3 perfbench/traced_serve.py --spans FILE serve --workdir DIR ...

Installs :mod:`tracing`'s wrappers, then hands the remaining arguments to
``repro.cli.main``; when the daemon returns after its SIGTERM drain, the
spans it recorded are written to ``FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans FILE serve ...", file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
