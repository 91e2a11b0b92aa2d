"""Peer-group construction with the paper's exclusion rules (Section 4.2).

Candidates are the members of the 65 reachable IXPs minus networks highly
unlikely to peer with the studied NREN:

1. its transit providers (providers do not peer with customers — and the
   tier-1s have no providers of their own, so no transitive rule is
   needed);
2. members of the two IXPs it already belongs to (CATNIX, ESpanix) — this
   sweeps in every other tier-1;
3. fellow GÉANT members (already cheaply interconnected).

The four peer groups then slice candidates by PeeringDB policy:
group 1 = open, group 2 = open + the 10 selective networks with the
largest individual offload potential, group 3 = open + selective,
group 4 = everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.offload_world import POLICY_ORDER, OffloadWorld, asn_array
from repro.types import ASN, PeeringPolicy

#: Group numbering follows the paper.
ALL_GROUPS = (1, 2, 3, 4)

GROUP_LABELS = {
    1: "all open policies",
    2: "all open and top 10 selective policies",
    3: "all open and selective policies",
    4: "all policies",
}

#: How many selective networks group 2 adds on top of group 1.
TOP_SELECTIVE_COUNT = 10

_OPEN = POLICY_ORDER.index(PeeringPolicy.OPEN)
_SELECTIVE = POLICY_ORDER.index(PeeringPolicy.SELECTIVE)


@dataclass
class PeerGroups:
    """Candidate peers of the studied network, sliced into the 4 groups.

    Membership questions are answered from arrays: the candidates as a
    sorted ASN array, their policy codes from one vectorised world
    lookup, and per group the sorted array of its members.  The
    ``(IXP row, member)`` pairs of every membership feed the cone
    bitsets of the estimators.
    """

    world: OffloadWorld
    candidates: frozenset[ASN] = field(default_factory=frozenset)
    top_selective: frozenset[ASN] = field(default_factory=frozenset)
    _groups: dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        world: OffloadWorld,
        exclude_transit_providers: bool = True,
        exclude_home_ixp_members: bool = True,
        exclude_geant_club: bool = True,
    ) -> "PeerGroups":
        """Apply the exclusion rules and rank the selective candidates.

        The three rule switches exist for ablation: the paper argues each
        exclusion removes networks "highly unlikely to peer" — disabling
        one shows how much potential that rule conservatively forgoes.
        """
        excluded: list[ASN] = [world.rediris]
        if exclude_transit_providers:  # rule 1
            excluded += world.transit_providers
        if exclude_home_ixp_members:  # rule 2
            for home in ("CATNIX", "ESpanix"):
                excluded += world.memberships.get(home, ())
        if exclude_geant_club:  # rule 3
            excluded += (world.geant, *world.nrens)
        groups = cls(world=world)
        _, members = groups.membership_pairs
        groups.candidates = frozenset(
            np.setdiff1d(members, np.array(excluded, dtype=np.int64)).tolist()
        )
        groups.top_selective = groups._rank_top_selective()
        return groups

    def restrict(self, allowed: frozenset[ASN]) -> "PeerGroups":
        """The groups limited to candidates in ``allowed``.

        This is how a *measured* peer map enters the offload arithmetic:
        the joint detection→offload study passes the set of members its
        detection campaign called remote, so every downstream estimate is
        computed over what an operator would actually see rather than the
        oracle candidate set.  ``top_selective`` is intersected, not
        re-ranked — the restriction models missing knowledge of peers, not
        a different ranking rule.
        """
        return PeerGroups(
            world=self.world,
            candidates=self.candidates & allowed,
            top_selective=self.top_selective & allowed,
        )

    # -- arrays ---------------------------------------------------------------

    @cached_property
    def membership_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(IXP row, member ASN)`` of every membership, IXPs by acronym."""
        memberships = self.world.memberships
        acronyms = sorted(memberships)
        rows = np.repeat(
            np.arange(len(acronyms)), [len(memberships[a]) for a in acronyms]
        )
        members = np.concatenate(
            [asn_array(memberships[a]) for a in acronyms]
            or [np.empty(0, dtype=np.int64)]
        )
        return rows, members

    @cached_property
    def _sorted_candidates(self) -> np.ndarray:
        return np.sort(asn_array(self.candidates))

    @cached_property
    def _policy_codes(self) -> np.ndarray:
        """Policy codes of :attr:`_sorted_candidates`, one world lookup."""
        return self.world.policy_codes(self._sorted_candidates)

    def _group_array(self, group: int) -> np.ndarray:
        """Sorted ASNs of one group's members."""
        if group not in ALL_GROUPS:
            raise ConfigurationError(f"unknown peer group {group}")
        got = self._groups.get(group)
        if got is None:
            candidates = self._sorted_candidates
            if group == 4:
                got = candidates
            else:
                codes = self._policy_codes
                keep = codes == _OPEN
                if group == 3:
                    keep |= codes == _SELECTIVE
                elif group == 2:
                    keep |= np.isin(candidates, asn_array(self.top_selective))
                got = candidates[keep]
            self._groups[group] = got
        return got

    def group_pairs(self, group: int) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`membership_pairs` restricted to one group's members."""
        members = self._group_array(group)
        rows, asns = self.membership_pairs
        keep = np.isin(asns, members)
        return rows[keep], asns[keep]

    def _rank_top_selective(self) -> frozenset[ASN]:
        """The 10 selective candidates with the largest offload potential.

        A candidate's individual potential is the transit traffic of its
        customer cone (itself included), combined inbound + outbound.
        Single-network cones read their one rate; wider cones (tier-2s)
        sum their run exactly as a per-candidate reduction would.
        """
        candidates = self._sorted_candidates
        selective = candidates[self._policy_codes == _SELECTIVE]
        lengths, indices = self.world.contrib_cones(selective)
        rates = self.world.matrix.total_bps[indices]
        ends = np.cumsum(lengths)
        starts = ends - lengths
        potentials = np.zeros(selective.size)
        single = lengths == 1
        potentials[single] = rates[starts[single]]
        for k in np.flatnonzero(lengths > 1).tolist():
            potentials[k] = rates[starts[k]:ends[k]].sum()
        top = np.lexsort((selective, -potentials))[:TOP_SELECTIVE_COUNT]
        return frozenset(selective[top].tolist())

    # -- group membership ---------------------------------------------------------

    def in_group(self, asn: ASN, group: int) -> bool:
        """Whether candidate ``asn`` belongs to peer group ``group``."""
        members = self._group_array(group)
        k = int(np.searchsorted(members, asn))
        return k < members.size and int(members[k]) == asn

    def group_members(self, group: int) -> frozenset[ASN]:
        """All candidates in one peer group."""
        return frozenset(self._group_array(group).tolist())

    def ixp_group_members(self, ixp_acronym: str, group: int) -> frozenset[ASN]:
        """Group members with a membership at one IXP."""
        members = self.world.memberships.get(ixp_acronym)
        if members is None:
            raise ConfigurationError(f"unknown IXP {ixp_acronym!r}")
        asns = asn_array(members)
        in_group = np.isin(asns, self._group_array(group))
        return frozenset(asns[in_group].tolist())

    def candidate_count(self) -> int:
        """Total candidates after exclusions (paper: 2,192)."""
        return len(self.candidates)
