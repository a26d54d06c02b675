"""Peeling-based D-core decomposition (the paper's baseline, [13, 17]).

The exact sequential algorithm: first the in-degree peel yields
``k_max(v)`` for every vertex (the (k,0)-core hierarchy); then, for each
``k``, the (k,0)-core is peeled by increasing out-degree threshold ``l``
with full cascade on both constraints, assigning ``l_max(k, v)`` at the
removal level. This doubles as the correctness oracle for the distributed
algorithms.

Because a distributed run of this algorithm is gated on a coordinator
observing every deletion wave, we also report a distributed *cost model*
(see Fig. 4 / DESIGN.md §4): ``rounds`` counts the sequential deletion
waves summed over all k-passes (each wave is one synchronised superstep),
and ``messages`` counts one message per (removed vertex → surviving
neighbor) degree update plus the initial graph collection of |E| edge
records. Wall-clock on one box is *expected* to beat the H-index
algorithms (the paper's own Appendix F result); the distributed gap lives
in rounds × latency and message volume.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.framework.local_engine import adjacency

Edge = tuple[int, int]


@dataclass
class PeelingStats:
    """Distributed-cost model counters for the coordinator-based peeling."""

    rounds: int = 0  # sequential deletion waves across all k-passes
    messages: int = 0  # graph collection + per-deletion neighbor updates


def in_coreness(edges: list[Edge]) -> dict[int, int]:
    """``k_max(v)``: the max k with v in a non-empty (k,0)-core.

    Bucket-queue peel on in-degrees; removing a vertex decrements the
    in-degree of its out-neighbors. O(n + m).
    """
    in_n, out_n = adjacency(edges)
    deg = {v: len(nbrs) for v, nbrs in in_n.items()}
    maxd = max(deg.values(), default=0)
    buckets: list[list[int]] = [[] for _ in range(maxd + 1)]
    for v, d in deg.items():
        buckets[d].append(v)
    core: dict[int, int] = {}
    removed: set[int] = set()
    k = 0
    for d in range(maxd + 1):
        i = 0
        bucket = buckets[d]
        while i < len(bucket):
            v = bucket[i]
            i += 1
            if v in removed or deg[v] != d:
                continue
            k = max(k, d)
            core[v] = k
            removed.add(v)
            for w in out_n[v]:  # v's removal lowers w's in-degree
                if w not in removed and deg[w] > d:
                    deg[w] -= 1
                    # deg[w] >= d still holds, so the re-bucket target is
                    # the current or a future bucket — never one already
                    # fully scanned.
                    buckets[deg[w]].append(w)
    return core


def peel_decompose(
    edges: list[Edge],
) -> tuple[dict[int, list[int]], PeelingStats]:
    """Full peeling decomposition.

    Returns ``(anchored, stats)`` with ``anchored[v] = [l_max(0,v), ...,
    l_max(k_max(v), v)]`` and the distributed cost-model counters.
    """
    in_n, out_n = adjacency(edges)
    m = sum(len(nbrs) for nbrs in out_n.values())
    kmax = in_coreness(edges)
    stats = PeelingStats(messages=m)  # coordinator collects the graph
    anchored = {v: [] for v in in_n}
    if not in_n:
        return anchored, stats
    K = max(kmax.values())
    for k in range(K + 1):
        alive = {v for v in in_n if kmax[v] >= k}
        ind = {v: sum(1 for u in in_n[v] if u in alive) for v in alive}
        outd = {v: sum(1 for u in out_n[v] if u in alive) for v in alive}
        # Coordinator dispatches the (k, ·) decomposition task with the
        # current induced subgraph G[k] — this Σ_k |E(G[k])| (~ k_max · m)
        # term is what makes peeling's communication explode on graphs
        # with deep cores (paper Fig. 4(b); Hollywood has k_max = 1297).
        stats.messages += sum(outd.values())
        l = 1
        while alive:
            # Wave 0 of threshold l: current violators.
            wave = deque(v for v in alive if outd[v] < l or ind[v] < k)
            while wave:
                stats.rounds += 1  # one synchronised deletion wave
                next_wave: deque[int] = deque()
                for v in wave:
                    if v not in alive:
                        continue
                    alive.discard(v)
                    anchored[v].append(l - 1)  # l_max(k, v) = l - 1
                    for w in out_n[v]:
                        if w in alive:
                            stats.messages += 1
                            ind[w] -= 1
                            if ind[w] < k:
                                next_wave.append(w)
                    for w in in_n[v]:
                        if w in alive:
                            stats.messages += 1
                            outd[w] -= 1
                            if outd[w] < l:
                                next_wave.append(w)
                wave = next_wave
            l += 1
    return anchored, stats
