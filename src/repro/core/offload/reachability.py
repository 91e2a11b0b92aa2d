"""The generalized reachability metric of Figure 10.

To show diminishing marginal IXP utility independently of RedIRIS's
traffic, the paper switches the metric to *the number of IP interfaces
reachable only through transit providers*: ~2.6 billion addresses sit
behind the transit hierarchy, and reaching IXPs moves the cones of their
members (per peer group) into peering reach.

Like the traffic-side estimator, the implementation precomputes one
boolean cone-membership matrix per peer group — here (IXP × *all* ASes),
since the metric counts every announced address, not just the contributing
networks' — and answers coverage queries with masked reductions over the
per-AS address-space vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.offload.bitsets import cached_group_bitset, greedy_cover_rows
from repro.core.offload.peergroups import PeerGroups
from repro.errors import ConfigurationError
from repro.sim.offload_world import OffloadWorld


@dataclass(frozen=True, slots=True)
class ReachabilityStep:
    """One greedy step of the Figure 10 expansion."""

    rank: int
    ixp: str
    remaining_addresses: float

    @property
    def remaining_billions(self) -> float:
        """Remaining transit-only addresses, in billions (Figure 10 y-axis)."""
        return self.remaining_addresses / 1e9


class _AddressMatrix:
    """Per-group (IXP × all-AS) cone bitsets plus the address-space vector."""

    def __init__(self, world: OffloadWorld, groups: PeerGroups) -> None:
        self.world = world
        self.groups = groups
        self.asns = world.graph.asns()
        self.candidates = sorted(world.memberships)
        self.space = np.array(
            [world.graph.get(a).address_space for a in self.asns], dtype=float
        )
        self._matrices: dict[int, np.ndarray] = {}

    def matrix(self, group: int) -> np.ndarray:
        return cached_group_bitset(
            self._matrices, group, (len(self.candidates), len(self.asns)),
            self.groups, self.world.all_cones,
        )

    def combined_mask(self, ixps: Iterable[str], group: int) -> np.ndarray:
        """Coverage of just the requested IXPs (no full-matrix assembly)."""
        row_of = {acronym: row for row, acronym in enumerate(self.candidates)}
        wanted = []
        for acronym in ixps:
            if acronym not in row_of:
                raise ConfigurationError(f"unknown IXP {acronym!r}")
            wanted.append(row_of[acronym])
        rows, members = self.groups.group_pairs(group)
        combined = np.zeros(len(self.asns), dtype=bool)
        reached = members[np.isin(rows, wanted)]
        combined[self.world.all_cones(reached)[1]] = True
        return combined


def total_address_space(world: OffloadWorld) -> float:
    """All announced addresses: the zero-IXP baseline (~2.6 B)."""
    return world.total_address_space()


def reachable_via_peering(
    world: OffloadWorld,
    groups: PeerGroups,
    ixps: Iterable[str],
    group: int,
) -> float:
    """Addresses covered by the cones of reachable group members."""
    matrices = _AddressMatrix(world, groups)
    combined = matrices.combined_mask(ixps, group)
    return float(matrices.space[combined].sum())


def greedy_reachability(
    world: OffloadWorld,
    groups: PeerGroups,
    group: int,
    max_ixps: int | None = None,
) -> list[ReachabilityStep]:
    """Greedy expansion minimising transit-only reachable addresses.

    Mirrors Figure 10: at each step add the IXP whose members' cones cover
    the most not-yet-covered address space, through the same
    :func:`~repro.core.offload.bitsets.greedy_cover_rows` as the traffic
    expansion.
    """
    matrices = _AddressMatrix(world, groups)
    candidates = matrices.candidates
    limit = len(candidates) if max_ixps is None else min(max_ixps, len(candidates))
    if limit <= 0:
        raise ConfigurationError("max_ixps must be positive")
    total = float(matrices.space.sum())
    steps: list[ReachabilityStep] = []
    for rank, best, covered in greedy_cover_rows(
        matrices.matrix(group), matrices.space, limit
    ):
        remaining = total - float(
            matrices.space[np.flatnonzero(covered)].sum()
        )
        fresh_gain = (
            (total - remaining) if not steps
            else steps[-1].remaining_addresses - remaining
        )
        steps.append(
            ReachabilityStep(
                rank=rank,
                ixp=candidates[best],
                remaining_addresses=remaining,
            )
        )
        if fresh_gain <= 0:
            break
    return steps
