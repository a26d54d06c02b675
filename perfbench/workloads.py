"""Benchmark workloads: graph inputs, seeding and expected counts.

Each workload names one graph, one algorithm (AC/SC), one mode
(vertex/block) and one engine (spark/local). All run HASH partitioning
with 8 blocks, as in EXPERIMENTS.md.

Seeding. The graph is always rebuilt from its generator parameters
(copied here from ``repro.graphs.datasets.SPECS``) and checked against
``datasets.load`` so the copy cannot drift. ``--seed`` then relabels the
vertex ids: ids are permuted within each residue class modulo the block
count, so every vertex keeps its HASH block. The graph and its partition
are therefore the same up to naming, and the paper's counts (rounds,
messages, volume) are the same at every seed; only id-dependent orders
(dict and set iteration, Spark row order) change. Seed 0 is the
identity. Reseeding the generator instead moved SL SC-B rounds by 29%
and its wall time by 47% (interquartile range over eight seeds), which
no timing bound could absorb.

The Spark workload's input is 64 disjoint copies of the paper's Figure 2
rather than an analog: a Spark superstep costs about one second whatever
the graph size, and the analogs need 28-60 supersteps per call, which
the benchmark's time budget cannot afford over its many runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.graphs import datasets
from repro.graphs.generators import planted_core_digraph

Edge = tuple[int, int]

N_BLOCKS = 8
PARTITIONER = "hash"
#: Copies of the paper's Figure 2 graph in the Spark workload's input.
FIG2_TILES = 64


def _fig2_tiled() -> list[Edge]:
    """``FIG2_TILES`` disjoint copies of Figure 2; copy i maps v -> 8i + v,
    so each copy has Figure 2's own HASH layout."""
    base = datasets.paper_figure2()
    return [(8 * i + u, 8 * i + v) for i in range(FIG2_TILES) for u, v in base]


def _check_fig2(edges: list[Edge]) -> None:
    if edges[: len(datasets.paper_figure2())] != datasets.paper_figure2():
        raise RuntimeError("tile 0 of the Spark input is not Figure 2")


def _spec_graph(**params) -> Callable[[], list[Edge]]:
    return lambda: planted_core_digraph(**params)


def _check_spec(name: str) -> Callable[[list[Edge]], None]:
    def check(edges: list[Edge]) -> None:
        if tuple(edges) != datasets.load(name):
            raise RuntimeError(
                f"benchmark copy of the {name} generator drifted from "
                "repro.graphs.datasets.SPECS"
            )

    return check


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[], list[Edge]]
    check_base: Callable[[list[Edge]], None]
    algo: str
    mode: str
    engine: str
    #: (rounds, messages, volume); seed-invariant, see module docstring.
    expected: tuple[int, int, int]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "spark-fig2x64-ac-block", _fig2_tiled, _check_fig2,
            "AC", "block", "spark", (3, 5184, 12288),
        ),
        Workload(
            "local-wv-sc-block",
            _spec_graph(
                n=500, m_background=6_500, core_size=70, core_in_deg=13,
                core_out_alpha=0.3, alpha_in=0.75, alpha_out=0.75, seed=11,
            ),
            _check_spec("WV"), "SC", "block", "local", (38, 76_075, 173_700),
        ),
        Workload(
            "local-am-ac-vertex",
            _spec_graph(
                n=2_500, m_background=19_500, core_size=60,
                core_in_deg=9, core_regular=True, alpha_in=0.0,
                alpha_out=0.0, seed=44,
            ),
            _check_spec("AM"), "AC", "vertex", "local", (24, 190_075, 698_340),
        ),
    ]
}


def relabel(edges: list[Edge], seed: int, n_blocks: int = N_BLOCKS) -> list[Edge]:
    """Permute vertex ids within each residue class mod ``n_blocks``
    (seed 0: identity)."""
    if seed == 0:
        return list(edges)
    rng = random.Random(seed)
    classes: dict[int, list[int]] = {}
    for v in sorted({x for e in edges for x in e}):
        classes.setdefault(v % n_blocks, []).append(v)
    mapping: dict[int, int] = {}
    for ids in classes.values():
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping.update(zip(ids, shuffled))
    return [(mapping[u], mapping[v]) for u, v in edges]
