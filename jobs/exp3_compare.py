"""Exp-3 reproduction (Fig. 4, as a table): ours vs the Peeling baseline.

For each dataset, reports per algorithm:

* wall-clock seconds of the distributed run (Spark engine by default);
* communication overhead = total messages sent (Fig. 4(b));
* coordination rounds (supersteps for ours; sequential deletion waves
  for the distributed peeling — each wave is one coordinator round).

Also reports the *centralized* peeling wall-clock, reproducing the
paper's Appendix F observation that peeling wins on a single machine
while losing by orders of magnitude on rounds/messages in the
distributed setting.

Usage: python jobs/exp3_compare.py [--datasets WV SL] [--engine spark|local]
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import print_table  # noqa: E402

from repro.baseline.peeling import peel_decompose  # noqa: E402
from repro.core.decompose import decompose  # noqa: E402
from repro.framework.engine import get_spark  # noqa: E402
from repro.graphs.datasets import SPECS, load  # noqa: E402


def compare_rows(spark, names, engine: str, n_blocks: int = 8):
    rows = []
    for name in names:
        edges = list(load(name))
        t0 = time.perf_counter()
        peel, pstats = peel_decompose(edges)
        t_peel = time.perf_counter() - t0
        for algo in ("AC", "SC"):
            for mode in ("vertex", "block"):
                res = decompose(
                    spark, edges, algo=algo, mode=mode,
                    partitioner="hash", n_blocks=n_blocks, engine=engine,
                )
                ok = res.anchored == peel
                rows.append(
                    [
                        name,
                        f"{algo}-{mode[0].upper()}",
                        f"{res.wall_seconds:.1f}",
                        res.total_rounds,
                        res.total_messages,
                        res.total_volume,
                        "yes" if ok else "NO!",
                    ]
                )
        rows.append(
            [
                name,
                "Peeling",
                f"{t_peel:.1f} (centralized)",
                pstats.rounds,
                pstats.messages,
                pstats.messages,  # scalar notifications: volume == count
                "oracle",
            ]
        )
    return rows


def scaling_rows(depths=(4, 8, 16, 32, 48)):
    """Communication vs core depth k_max: peeling's Σ_k |E(G[k])| term
    grows ~linearly with k_max while SC's volume stays nearly flat —
    the crossover behind Fig. 4(b)'s orders-of-magnitude gap on deep-core
    graphs (Hollywood: k_max = 1297)."""
    from repro.graphs.generators import planted_core_digraph

    rows = []
    for d in depths:
        edges = planted_core_digraph(
            600, 3_000, core_size=2 * d + 8, core_in_deg=d,
            core_regular=True, seed=77,
        )
        _, pstats = peel_decompose(edges)
        sc = decompose(None, edges, algo="SC", mode="block", n_blocks=8,
                       engine="local")
        rows.append(
            [d, len(edges), pstats.rounds, pstats.messages,
             sc.rounds["dindex"], sc.total_volume,
             f"{pstats.messages / sc.total_volume:.2f}x"]
        )
    return rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", nargs="*", default=["WV", "SL"])
    ap.add_argument("--engine", choices=("local", "spark"), default="spark")
    ap.add_argument("--n-blocks", type=int, default=8)
    ap.add_argument("--scaling", action="store_true",
                    help="also print the k_max-scaling crossover table")
    args = ap.parse_args()
    for d in args.datasets:
        if d not in SPECS:
            raise SystemExit(f"unknown dataset {d}")
    spark = get_spark("exp3") if args.engine == "spark" else None
    rows = compare_rows(spark, args.datasets, args.engine, args.n_blocks)
    print_table(
        ["dataset", "algorithm", "wall_s", "rounds", "messages", "volume",
         "correct"],
        rows,
    )
    if args.scaling:
        print("\nCommunication vs core depth (peeling's Σ_k |E(G[k])| "
              "dispatch cost vs SC's shipped volume):")
        print_table(
            ["core_depth", "|E|", "peel_rounds", "peel_msgs",
             "sc_rounds", "sc_volume", "peel/sc"],
            scaling_rows(),
        )
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
