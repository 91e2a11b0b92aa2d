"""Greedy expansion of the reached-IXP set (Figures 8 and 9).

The paper "iteratively expand[s] the set of reached IXPs by adding the IXP
with the largest remaining offload potential" and observes exponentially
diminishing marginal utility, with ~5 IXPs realizing most of the total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.offload.bitsets import greedy_cover_rows
from repro.core.offload.potential import OffloadEstimator
from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class GreedyStep:
    """One iteration of the expansion."""

    rank: int  # 1-based position in the greedy order
    ixp: str
    gained_inbound_bps: float
    gained_outbound_bps: float
    remaining_inbound_bps: float
    remaining_outbound_bps: float

    @property
    def gained_total_bps(self) -> float:
        """Traffic newly offloaded by this IXP."""
        return self.gained_inbound_bps + self.gained_outbound_bps

    @property
    def remaining_total_bps(self) -> float:
        """Transit traffic left after this step (Figure 9's y-axis)."""
        return self.remaining_inbound_bps + self.remaining_outbound_bps


def greedy_expansion(
    estimator: OffloadEstimator,
    group: int,
    max_ixps: int | None = None,
) -> list[GreedyStep]:
    """Grow the reached set greedily until no IXP adds traffic.

    Ties (including the all-zero tail) resolve alphabetically, which keeps
    runs deterministic.

    The order comes from :func:`~repro.core.offload.bitsets.greedy_cover_rows`
    over the group's cone-membership bitset: candidate ``k``'s gain is the
    combined traffic of its not-yet-covered networks, and a heap of stale
    gains means each rank re-sums only the candidates that could still
    win.  The step's reported numbers are float64 masked sums over the
    running coverage.
    """
    world = estimator.world
    matrix = world.matrix
    total_in = float(matrix.inbound_bps.sum())
    total_out = float(matrix.outbound_bps.sum())
    candidates = estimator.reachable_ixps()
    limit = len(candidates) if max_ixps is None else min(max_ixps, len(candidates))
    if limit <= 0:
        raise ConfigurationError("max_ixps must be positive")

    offl_in = offl_out = 0.0
    steps: list[GreedyStep] = []
    for rank, best, covered in greedy_cover_rows(
        estimator.group_matrix(group), matrix.total_bps, limit
    ):
        best_ixp = candidates[best]
        previous_in, previous_out = offl_in, offl_out
        # Gathering by index equals boolean masking (same array, same
        # sum) but skips a per-element branch on the ~30k-entry mask.
        reached = np.flatnonzero(covered)
        offl_in = float(matrix.inbound_bps[reached].sum())
        offl_out = float(matrix.outbound_bps[reached].sum())
        # The fresh gain is exactly the coverage delta (the row's fresh
        # indices are disjoint from the previous coverage).
        gain_in = offl_in - previous_in
        gain_out = offl_out - previous_out
        steps.append(
            GreedyStep(
                rank=rank,
                ixp=best_ixp,
                gained_inbound_bps=gain_in,
                gained_outbound_bps=gain_out,
                remaining_inbound_bps=total_in - offl_in,
                remaining_outbound_bps=total_out - offl_out,
            )
        )
        if gain_in + gain_out <= 0:
            break
    return steps


def remaining_traffic_series(
    estimator: OffloadEstimator, group: int, max_ixps: int | None = None
) -> list[float]:
    """Figure 9's series: remaining transit traffic after 0..k IXPs."""
    matrix = estimator.world.matrix
    total = float(matrix.inbound_bps.sum() + matrix.outbound_bps.sum())
    series = [total]
    for step in greedy_expansion(estimator, group, max_ixps):
        series.append(step.remaining_total_bps)
    return series


def second_ixp_matrix(
    estimator: OffloadEstimator, group: int, ixps: list[str]
) -> dict[str, dict[str, float]]:
    """Figure 8: offload potential at IXP B after fully peering at IXP A.

    Returns ``matrix[second][first]`` = potential (bps) remaining at
    ``second`` once the potential at ``first`` is realized; the diagonal
    holds each IXP's full single-IXP potential (``first == second``).
    """
    world = estimator.world
    matrix = world.matrix
    out: dict[str, dict[str, float]] = {}
    for second in ixps:
        second_mask = estimator.ixp_mask(second, group)
        row: dict[str, float] = {}
        for first in ixps:
            if first == second:
                fresh = second_mask
            else:
                fresh = second_mask & ~estimator.ixp_mask(first, group)
            row[first] = float(
                matrix.inbound_bps[fresh].sum() + matrix.outbound_bps[fresh].sum()
            )
        out[second] = row
    return out
