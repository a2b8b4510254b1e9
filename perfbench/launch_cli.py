"""Run the drdetect CLI with spans around its layers (traced pipeline run).

    python3 perfbench/launch_cli.py SPANS_JSON all --config ... --out ...

The caller puts `src/` on PYTHONPATH.  Times the package import, installs
the wrappers, calls `drdetect.cli_runner.main` and writes the spans to
SPANS_JSON on exit.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    start = time.perf_counter()
    import drdetect.cli_runner

    recorder.record("package.import", start, time.perf_counter())
    recorder.install()
    try:
        return drdetect.cli_runner.main(argv)
    finally:
        Path(spans_path).write_text(
            json.dumps(
                {"spans": recorder.spans, "window": None, "missing": recorder.missing}
            )
        )


if __name__ == "__main__":
    sys.exit(main())
