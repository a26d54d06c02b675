"""D-index kernels (Section 5, Definitions 5.3/5.4, Algorithm 6).

A *skyline* here is a set of mutually non-dominated ``(k, l)`` pairs.
``(k', l') <= (k, l)`` iff ``k' <= k`` and ``l' <= l`` (Definition 5.1).

Algorithm 6 scans ``k`` downwards and, at each ``k``, ``l`` downwards
until a candidate ``(k, l)`` has at least ``k`` supporting in-neighbors
and at least ``l`` supporting out-neighbors. A neighbor supports
``(k, l)`` iff ``maxl(k) >= l``, where ``maxl(k) = max{l' : (k', l') in
its pairs, k' >= k}`` (-1 if no pair reaches ``k``). Both tests are
monotone in ``l``, so :func:`n_order_d_index` computes the scan's answer
in closed form from order statistics of one support matrix per side
(row = neighbor, column ``k`` = its ``maxl(k)``, each column sorted in
descending order):

* the in-test holds iff ``l <= L_in(k)``, the ``k``-th largest entry of
  in-column ``k`` (+infinity at ``k = 0``, -1 when fewer than ``k``
  in-neighbors reach ``k``);
* the out-test holds iff ``l <= L_out(k)``, the H-index of out-column
  ``k``;

so the first accepted ``l`` at level ``k`` is ``min(L_in(k), L_out(k))``,
and the skyline keeps it when it exceeds the running ``l_min``.

* Optimization-1 (candidate ranges ``k <= k_hi = H({max-k of each
  in-neighbor})`` and ``l <= l_hi = H({max-l of each out-neighbor})``,
  plus ``l_min`` pruning) holds implicitly: every ``k > k_hi`` has
  ``L_in(k) = -1``, and ``L_out(k) <= l_hi`` because each ``maxl(k)`` is
  at most the neighbor's max-l. The matrices therefore need only
  ``1 + min(|in|, max k)`` columns and no H-index over neighbor maxima.
* Optimization-2 (one support count per *neighbor*, not per combination
  of neighbor pairs) is the support matrix itself: a neighbor counts once
  at ``(k, l)`` if any of its pairs dominates-or-equals it.
* Optimization-3 (tight initialization) lives in
  :mod:`repro.core.skyline`.

A brute-force reference (:func:`n_order_d_index_bruteforce`) backs the
property tests.
"""
from __future__ import annotations

import numpy as np

# h_index stays bound here: perfbench/layers.py patches dindex.h_index.
from repro.framework.hindex import h_index, h_index_sorted_desc  # noqa: F401

Pair = tuple[int, int]


def dominates_or_equal(small: Pair, big: Pair) -> bool:
    """Return True iff ``small <= big`` component-wise (Definition 5.1)."""
    return small[0] <= big[0] and small[1] <= big[1]


def skyline(pairs) -> list[Pair]:
    """Maximal non-dominated subset, sorted by k descending.

    On a valid skyline the l values strictly increase as k decreases.
    """
    best: dict[int, int] = {}
    for k, l in pairs:
        if best.get(k, -1) < l:
            best[k] = l
    out: list[Pair] = []
    top_l = -1
    for k in sorted(best, reverse=True):
        if best[k] > top_l:
            out.append((k, best[k]))
            top_l = best[k]
    return out


def n_order_d_index(
    in_skylines: list[list[Pair]], out_skylines: list[list[Pair]]
) -> list[Pair]:
    """Algorithm 6: the n-order D-index from the neighbors' skylines.

    Returns the skyline sorted by k descending. Any pair lists are
    accepted, not only skylines. ``l_min`` starts at -1 so pairs with
    l == 0 are reachable; the paper's pseudo-code initialises it to 0,
    but its own worked example (Table 2) contains pairs such as
    ``(2, 0)``, which requires scanning down to l = 0.
    """
    n_in = len(in_skylines)
    width = 1 + min(n_in, max((k for s in in_skylines for k, _ in s), default=0))
    k_top = width - 1
    # maxl matrix of both sides stacked (in-rows first): scatter each
    # (row, min(k, k_top)) cell's largest l, then a reverse running max
    # along k extends every pair to the smaller k it dominates.
    cells: dict[int, int] = {}
    for row, pairs in enumerate([*in_skylines, *out_skylines]):
        base = row * width
        for k, l in pairs:
            cell = base + (k if k < k_top else k_top)
            if cells.get(cell, -1) < l:
                cells[cell] = l
    m = np.full((n_in + len(out_skylines)) * width, -1, dtype=np.int64)
    if cells:
        m[list(cells)] = list(cells.values())
    m = np.maximum.accumulate(m.reshape(-1, width)[:, ::-1], axis=1)[:, ::-1]
    m_in = np.sort(m[:n_in], axis=0)[::-1]
    best = h_index_sorted_desc(np.sort(m[n_in:], axis=0)[::-1])  # L_out
    # L_in(k) = m_in[k - 1, k] for k >= 1; L_in(0) is unbounded.
    np.minimum(best[1:], np.diagonal(m_in[:, 1:]), out=best[1:])

    result: list[Pair] = []
    l_min = -1
    for k, l in zip(range(k_top, -1, -1), best[::-1].tolist()):
        if l > l_min:
            result.append((k, l))
            l_min = l
    return result


def n_order_d_index_bruteforce(
    in_pairs: list[list[Pair]], out_pairs: list[list[Pair]]
) -> list[Pair]:
    """Reference n-order D-index: enumerate every candidate, then skyline."""

    def exists_dom(nbr: list[Pair], k: int, l: int) -> bool:
        return any(dominates_or_equal((k, l), p) for p in nbr)

    qualified: list[Pair] = []
    for k in range(len(in_pairs) + 1):
        for l in range(len(out_pairs) + 1):
            n_in = sum(1 for nbr in in_pairs if exists_dom(nbr, k, l))
            n_out = sum(1 for nbr in out_pairs if exists_dom(nbr, k, l))
            if n_in >= k and n_out >= l:
                qualified.append((k, l))
    return skyline(qualified)


def d_index(r_in: list[Pair], r_out: list[Pair]) -> list[Pair]:
    """Definition 5.3's plain D-index of two pair sets (one pair per
    element). Checked in tests against the paper's worked example;
    the distributed algorithm uses :func:`n_order_d_index`.
    """
    return n_order_d_index_bruteforce([[p] for p in r_in], [[p] for p in r_out])
