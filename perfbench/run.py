#!/usr/bin/env python3
"""Repository benchmark: ``decompose()`` end to end, and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload local-am-ac-vertex --seed 1 \\
        --seconds 10 --trace 0

Each run is one Python process (a closed loop of one caller). It sets
up the workload (Spark session start, graph generation, input building)
several times and reports the median as ``setup_s``; makes the first,
cold ``decompose()`` call; then calls ``decompose()`` again until
``--seconds`` have passed (at least once) and reports the median warm
call. Every call is checked against the peeling oracle and the
workload's expected rounds/messages/volume.

With ``--trace 1`` the run instead reports per-layer metrics: the cold
call's time and traced decompositions (see ``layers.py``). It checks
that the Spark engine's per-round counts equal the local engine's, and
replays captured kernel calls. The last line of stdout is one JSON
object; everything else goes to stderr. See ``NOTES.md`` for the metrics and first numbers.

The program is imported from ``src/`` of the checkout; without it the
run exits with code 2. Temporary files (Spark's and the engine's
superstep parquet) go to ``.perfbench_tmp/`` and are removed on exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from metrics import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[n for n, _ in WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "core" / "decompose.py").is_file():
        print(f"[perfbench] no program source under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Spark's Python workers import the program too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        import harness

        result = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
