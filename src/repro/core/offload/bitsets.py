"""Shared cone-bitset machinery for the offload estimators.

Both reachability metrics — transit traffic (:mod:`.potential` /
:mod:`.greedy`) and address space (:mod:`.reachability`) — run on the
same two kernels:

* :func:`cached_group_bitset` scatters one peer group's boolean
  (IXP × network) cone-membership matrix from the group's (IXP row,
  member) pairs and the members' cone runs;
* :func:`greedy_cover_rows` drives an exact greedy set-cover expansion
  over such a matrix: float64 gains are sums of the still-uncovered
  column weights, and a heap of stale upper bounds means each rank
  re-sums only the few rows that reach the top of the heap.

Keeping them here means tie-break, dtype and empty-input behaviour cannot
drift between the two metrics.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

if TYPE_CHECKING:
    from repro.core.offload.peergroups import PeerGroups


def cached_group_bitset(
    cache: dict[int, np.ndarray],
    group: int,
    shape: tuple[int, int],
    groups: PeerGroups,
    cones: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """One group's read-only (IXP × network) cone bitset, built once.

    Both per-group matrix holders (the traffic estimator and the
    address-space metric) share this.  Row ``r`` holds the cones of the
    group's members at the ``r``-th IXP by acronym: the group's
    (IXP row, member) pairs, each member's cone from the world's
    vectorised ``cones`` lookup, and one flat scatter (duplicates are
    fine).  Unknown groups raise; hits return the cached matrix.
    """
    cached = cache.get(group)
    if cached is None:
        rows, members = groups.group_pairs(group)
        lengths, columns = cones(members)
        flat = np.repeat(rows * np.int64(shape[1]), lengths)
        flat += columns
        cached = np.zeros(shape, dtype=bool)
        cached.reshape(-1)[flat] = True
        cached.setflags(write=False)
        cache[group] = cached
    return cached


def greedy_cover_rows(
    bitset: np.ndarray,
    weights: np.ndarray,
    limit: int,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Exact greedy set-cover order over a cone bitset.

    Yields ``(rank, row, covered)`` per step.  ``row`` is the not yet
    chosen row with the largest gain, the float64 sum of its still
    uncovered ``weights`` (non-negative); ties resolve to the lowest row,
    which is alphabetical for acronym-sorted matrices.  ``covered`` is the
    running column coverage after adding it (one array, updated in
    place).  Stops after ``limit`` steps or when every row is chosen;
    callers ``break`` on their own no-gain condition.

    A gain is summed left to right over the row's uncovered columns in
    ascending order, so two rows with the same uncovered columns tie
    exactly, and covering a column can only shrink every partial sum.  A
    row's last computed gain is therefore an upper bound on its current
    one, bit for bit (Minoux's accelerated greedy): a heap of
    ``(-bound, row)`` entries is popped until its top bound was computed
    at the current rank, and only the rows met on the way are re-summed.
    The order is exactly that of re-summing every row at every rank.
    """
    uncovered = np.array(weights, dtype=np.float64)
    n_rows, n_cols = bitset.shape
    covered = np.zeros(n_cols, dtype=bool)
    flat = np.flatnonzero(bitset)
    bounds = np.searchsorted(flat, np.arange(n_rows + 1) * n_cols).tolist()
    columns = [
        flat[bounds[row]:bounds[row + 1]] - row * n_cols
        for row in range(n_rows)
    ]
    # Per row, the columns that may still carry weight: dropping the
    # zeros leaves a left-to-right sum unchanged.
    live = list(columns)

    def gain(row: int) -> float:
        values = uncovered[live[row]]
        keep = values > 0
        live[row] = live[row][keep]
        values = values[keep]
        return float(np.cumsum(values)[-1]) if values.size else 0.0

    heap = [(-gain(row), row) for row in range(len(columns))]
    heapq.heapify(heap)
    summed_at = [1] * len(columns)
    for rank in range(1, limit + 1):
        if not heap:
            return
        while summed_at[heap[0][1]] != rank:
            row = heap[0][1]
            summed_at[row] = rank
            heapq.heapreplace(heap, (-gain(row), row))
        best = heapq.heappop(heap)[1]
        covered[columns[best]] = True
        uncovered[columns[best]] = 0.0
        yield rank, best, covered
