"""The lazy greedy cover against a brute-force exact greedy.

The reference re-sums every remaining row's gain at every rank, left to
right over its uncovered columns in float64, and takes the lowest row on
ties.  :func:`greedy_cover_rows` must produce the same ``(rank, row,
covered)`` sequence on any bitset: duplicate and empty rows, zero-weight
columns, exact ties, float sums that round, and limits past the row
count.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.offload.bitsets import greedy_cover_rows

#: Weights chosen to collide: exact integer ties, zeros, sums that round
#: (0.1 + 0.2 != 0.3) and magnitudes that absorb small addends.
TIE_PRONE_WEIGHTS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 2.0, 3.0,
                     1e16, 1e-300)


def reference_cover(bitset: np.ndarray, weights: np.ndarray, limit: int):
    """Exact greedy by full re-evaluation; lowest row wins a tie."""
    n_rows, n_cols = bitset.shape
    covered = [False] * n_cols
    chosen: set[int] = set()
    steps = []
    for rank in range(1, limit + 1):
        best, best_gain = None, 0.0
        for row in range(n_rows):
            if row in chosen:
                continue
            gain = 0.0
            for col in range(n_cols):
                if bitset[row, col] and not covered[col]:
                    gain += float(weights[col])
            if best is None or gain > best_gain:
                best, best_gain = row, gain
        if best is None:
            break
        chosen.add(best)
        for col in range(n_cols):
            if bitset[best, col]:
                covered[col] = True
        steps.append((rank, best, tuple(covered)))
    return steps


def lazy_cover(bitset: np.ndarray, weights: np.ndarray, limit: int):
    return [
        (rank, row, tuple(covered.tolist()))
        for rank, row, covered in greedy_cover_rows(bitset, weights, limit)
    ]


@st.composite
def cover_cases(draw):
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 24))
    rows = [
        draw(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols))
        for _ in range(n_rows)
    ]
    # Duplicates and empties on purpose, not only by chance.
    if n_rows >= 2 and draw(st.booleans()):
        rows[draw(st.integers(1, n_rows - 1))] = list(rows[0])
    if n_rows >= 1 and draw(st.booleans()):
        rows[draw(st.integers(0, n_rows - 1))] = [False] * n_cols
    weight = st.one_of(
        st.sampled_from(TIE_PRONE_WEIGHTS),
        st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    )
    weights = draw(st.lists(weight, min_size=n_cols, max_size=n_cols))
    limit = draw(st.integers(1, n_rows + 3))
    bitset = np.array(rows, dtype=bool).reshape(n_rows, n_cols)
    return bitset, np.array(weights, dtype=np.float64), limit


@settings(max_examples=400, deadline=None)
@given(cover_cases())
def test_lazy_cover_matches_brute_force(case):
    bitset, weights, limit = case
    assert lazy_cover(bitset, weights, limit) == \
        reference_cover(bitset, weights, limit)


def test_duplicate_rows_resolve_to_the_lowest():
    bitset = np.array([[0, 1, 1], [1, 1, 0], [0, 1, 1]], dtype=bool)
    weights = np.array([1.0, 2.0, 2.0])
    order = [row for _, row, _ in greedy_cover_rows(bitset, weights, 3)]
    assert order == [0, 1, 2]


def test_ties_are_decided_by_uncovered_columns_only():
    # After row 2 is taken, rows 0 and 1 hold the same uncovered columns
    # (the nine tail weights) and differ only in covered ones.  Summing
    # the gathered rows pairwise, zeros included, would make row 1 read
    # 7.000000000000001 against row 0's 7.0; the gains must tie exactly,
    # so the lower row wins.
    tail = [0.9, 1.0, 0.1, 0.9, 1.0, 1.0, 0.2, 1.0, 0.9]
    weights = np.array([5.0, 5.0, 5.0, *tail, 100.0])
    bitset = np.zeros((3, 13), dtype=bool)
    bitset[0, [0, *range(3, 12)]] = True
    bitset[1, [0, 1, 2, *range(3, 12)]] = True
    bitset[2, [0, 1, 2, 12]] = True
    order = [row for _, row, _ in greedy_cover_rows(bitset, weights, 3)]
    assert order == [2, 0, 1]


def test_weights_are_not_modified():
    bitset = np.array([[1, 1], [0, 1]], dtype=bool)
    weights = np.array([1.0, 2.0])
    list(greedy_cover_rows(bitset, weights, 2))
    assert weights.tolist() == [1.0, 2.0]
