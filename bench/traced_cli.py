"""One traced CLI process: `variantfit.cli.main(argv)` with layer spans.

    python3 bench/traced_cli.py SPANS.json OP_ID -- estimate alpha --json

Behaves as `python -m variantfit.cli` would, exit code, output and
traceback included, and writes its spans to SPANS.json before it exits.
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, op, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json OP_ID -- ARGV...")
    import variantfit.cli as cli

    tracer = Tracer()
    tracer.op = int(op)
    tracer.patch_cli(cli)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        Path(spans_path).write_text(json.dumps([asdict(s) for s in tracer.spans]))


if __name__ == "__main__":
    sys.exit(main())
