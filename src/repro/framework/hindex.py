"""H-index kernel (Section 4 of the paper).

The H-index of a multiset of non-negative integers ``S`` is the maximum
integer ``h`` such that at least ``h`` elements of ``S`` are ``>= h``
(Hirsch index). It is the one-dimensional workhorse behind the paper's
n-order in-/out-H-indexes (Definitions 4.2/4.3) and, column-wise, the
out-side order statistic of the D-index (:mod:`repro.core.dindex`).
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def h_index(values: Iterable[int]) -> int:
    """Return ``H(S)``: the max ``h`` with at least ``h`` elements ``>= h``.

    Accepts any iterable of non-negative integers (a list, a generator, a
    numpy array); ``h_index([]) == 0`` and negative inputs are rejected.
    Sorted in descending order, the ``i``-th element (0-based) is ``>= i +
    1`` exactly for ``i < H``, so ``H`` is the length of the prefix where
    ``s[i] > i``. Plain Python: the programs call this on a handful of
    values at a time, where building a numpy array costs more than the
    sort.

    >>> h_index([1, 2, 3, 3, 4, 6])
    3
    """
    s = sorted(values, reverse=True)
    if s and s[-1] < 0:
        raise ValueError("h_index is defined for non-negative integers")
    h = 0
    for x in s:
        if x <= h:
            break
        h += 1
    return h


def h_index_sorted_desc(sorted_desc: np.ndarray) -> int | np.ndarray:
    """H-index of an int array already sorted in descending order along
    axis 0: an ``int`` for a 1-D array, one H-index per column (an int64
    array) for a 2-D one. Negative entries count as below every rank."""
    ranks = np.arange(1, sorted_desc.shape[0] + 1)
    if sorted_desc.ndim == 1:
        # ``sorted_desc >= ranks`` is a prefix, so its count is H.
        return int(np.count_nonzero(sorted_desc >= ranks))
    return np.count_nonzero(sorted_desc >= ranks[:, None], axis=0)
