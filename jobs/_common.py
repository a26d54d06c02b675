"""Shared helpers for spark-submit job entrypoints.

Jobs are thin argparse wrappers around functions that take a
SparkSession (from :func:`repro.framework.engine.get_spark`); running
them via ``python jobs/<name>.py`` or ``spark-submit jobs/<name>.py`` is
equivalent in local mode.
"""
from __future__ import annotations


def print_table(headers: list[str], rows: list[list]) -> None:
    """Minimal fixed-width table printer for job stdout."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
